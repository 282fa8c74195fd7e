"""The OpenSpec -> plan pipeline: validation, planning, replay guards.

Every entry point funnels through one validated spec, so contradictory
option combinations must fail identically everywhere — loudly, with
:class:`SionUsageError`, before any file is touched.
"""

import pytest

from repro.errors import SionUsageError, SpmdWorkerError
from repro.sion import paropen, serial
from repro.sion.hybrid import paropen_hybrid
from repro.sion.mapping import ReadPartition
from repro.sion.openspec import (
    OpenSpec,
    ReadPlan,
    ReplayGuardedFile,
    WritePlan,
    compile_read_plan,
    compile_write_plan,
)
from repro.simmpi import run_spmd
from tests.conftest import TEST_BLKSIZE


# ---------------------------------------------------------------------------
# Contradictory option pairs, one test per pair.


def test_rejects_collectsize_and_collectors_together():
    with pytest.raises(SionUsageError, match="not both"):
        OpenSpec(path="/x", mode="w", chunksize=64, collectsize=4, collectors=2)


def test_rejects_chunksize_and_chunksizes_together():
    with pytest.raises(SionUsageError, match="not both"):
        OpenSpec(path="/x", mode="w", chunksize=64, chunksizes=(64, 64))


def test_rejects_read_with_chunksize():
    with pytest.raises(SionUsageError, match="chunksize contradicts read mode"):
        OpenSpec(path="/x", mode="r", chunksize=64)


def test_rejects_read_with_chunksizes():
    with pytest.raises(SionUsageError, match="chunksizes contradicts read mode"):
        OpenSpec(path="/x", mode="r", chunksizes=(64,))


def test_rejects_read_with_fsblksize():
    with pytest.raises(SionUsageError, match="fsblksize contradicts read mode"):
        OpenSpec(path="/x", mode="r", fsblksize=512)


def test_rejects_read_with_nfiles():
    with pytest.raises(SionUsageError, match="nfiles contradicts read mode"):
        OpenSpec(path="/x", mode="r", nfiles=2)


def test_rejects_read_with_mapping():
    with pytest.raises(SionUsageError, match="mapping contradicts read mode"):
        OpenSpec(path="/x", mode="r", mapping="roundrobin")


def test_rejects_read_with_compress():
    with pytest.raises(SionUsageError, match="compress contradicts read mode"):
        OpenSpec(path="/x", mode="r", compress=True)


def test_rejects_read_with_shadow():
    with pytest.raises(SionUsageError, match="shadow contradicts read mode"):
        OpenSpec(path="/x", mode="r", shadow=True)


def test_rejects_write_with_partitioned():
    with pytest.raises(SionUsageError, match="read mode only"):
        OpenSpec(path="/x", mode="w", chunksize=64, partitioned=True)


def test_rejects_write_without_chunk_geometry():
    with pytest.raises(SionUsageError, match="non-negative chunksize"):
        OpenSpec(path="/x", mode="w")


def test_rejects_negative_chunksize():
    with pytest.raises(SionUsageError, match="non-negative chunksize"):
        OpenSpec(path="/x", mode="w", chunksize=-1)


def test_rejects_bad_mode():
    with pytest.raises(SionUsageError, match="mode must be"):
        OpenSpec(path="/x", mode="a")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"collectsize": 0},
        {"collectors": 0},
        {"nfiles": 0},
        {"fsblksize": 0},
    ],
)
def test_rejects_nonpositive_counts(kwargs):
    with pytest.raises(SionUsageError):
        OpenSpec(path="/x", mode="w", chunksize=64, **kwargs)


# ---------------------------------------------------------------------------
# The same contradictions through the legacy entry points.


def test_paropen_rejects_collectsize_and_collectors(sim_backend):
    def task(comm):
        paropen(
            "/scratch/c.sion", "w", comm, chunksize=64,
            backend=sim_backend, collectsize=2, collectors=2,
        )

    with pytest.raises(SpmdWorkerError) as exc:
        run_spmd(2, task)
    assert any(
        isinstance(e, SionUsageError) for e in exc.value.failures.values()
    )


def test_paropen_rejects_read_with_explicit_nfiles(sim_backend):
    def wtask(comm):
        f = paropen("/scratch/n.sion", "w", comm, chunksize=64, backend=sim_backend)
        f.fwrite(b"x")
        f.parclose()

    run_spmd(2, wtask)

    def rtask(comm):
        paropen("/scratch/n.sion", "r", comm, nfiles=2, backend=sim_backend)

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, rtask)


def test_paropen_read_defaults_are_normalized_away(sim_backend):
    """The legacy defaults (nfiles=1, mapping='blocked') stay accepted."""

    def wtask(comm):
        f = paropen("/scratch/d.sion", "w", comm, chunksize=64, backend=sim_backend)
        f.fwrite(bytes([comm.rank]) * 10)
        f.parclose()

    run_spmd(2, wtask)

    def rtask(comm):
        f = paropen(
            "/scratch/d.sion", "r", comm, nfiles=1, mapping="blocked",
            backend=sim_backend,
        )
        data = f.read_all()
        f.parclose()
        return data

    out = run_spmd(2, rtask)
    assert out == [bytes([0]) * 10, bytes([1]) * 10]


def test_serial_open_rejects_contradictions(sim_backend):
    with pytest.raises(SionUsageError, match="per-task chunk sizes"):
        serial.open("/scratch/s.sion", "w", backend=sim_backend)
    with pytest.raises(SionUsageError, match="mode must be"):
        serial.open("/scratch/s.sion", "x", backend=sim_backend)


def test_hybrid_rejects_contradictions_before_any_open(sim_backend):
    def task(comm):
        paropen_hybrid(
            "/scratch/h.sion", "w", comm, nthreads=2, chunksize=64,
            backend=sim_backend, collectsize=2, collectors=2,
        )

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, task)
    # Validation fired before thread 0's multifile was created.
    assert not sim_backend.exists("/scratch/h.sion.t00")


# ---------------------------------------------------------------------------
# Plan compilation.


def test_compile_write_plan_exposes_duties(sim_backend):
    def task(comm):
        spec = OpenSpec.for_paropen(
            path="/scratch/p.sion", mode="w", chunksize=100, nfiles=2,
        )
        plan, lcom = compile_write_plan(spec, comm, sim_backend)
        assert isinstance(plan, WritePlan)
        return (
            plan.filenum,
            lcom.rank,  # the local rank
            plan.path,
            lcom.rank == 0,  # metablock duty: per-file master
            int(plan.layout.aligned_sizes[lcom.rank]),
        )

    out = run_spmd(4, task)
    assert [o[0] for o in out] == [0, 0, 1, 1]
    assert [o[1] for o in out] == [0, 1, 0, 1]
    assert out[0][2] == "/scratch/p.sion"
    assert out[2][2] == "/scratch/p.sion.000001"
    assert [o[3] for o in out] == [True, False, True, False]
    assert all(o[4] >= 100 for o in out)


def test_compile_partitioned_read_plan_assignments(sim_backend):
    def wtask(comm):
        f = paropen(
            "/scratch/q.sion", "w", comm, chunksize=64, nfiles=2,
            backend=sim_backend,
        )
        f.fwrite(bytes([comm.rank]) * 8)
        f.parclose()

    run_spmd(6, wtask)

    def rtask(comm):
        spec = OpenSpec.for_paropen(
            path="/scratch/q.sion", mode="r", partitioned=True
        )
        plan = compile_read_plan(spec, comm, sim_backend)
        assert isinstance(plan, ReadPlan)
        tmap = plan.mapping
        writers = ReadPartition.balanced(plan.ntasks, comm.size).writers_of(comm.rank)
        return [(g, tmap.files[g], tmap.lranks[g]) for g in writers]

    out = run_spmd(2, rtask)
    # Balanced contiguous slices over 6 writers in 2 files of 3.
    assert out[0] == [(0, 0, 0), (1, 0, 1), (2, 0, 2)]
    assert out[1] == [(3, 1, 0), (4, 1, 1), (5, 1, 2)]


# ---------------------------------------------------------------------------
# Replay guards.


def test_guard_exposes_inner_handle(sim_backend):
    class _Comm:
        def exec_once(self, fn):
            return fn()

    with sim_backend.open("/scratch/g.bin", "w+b") as raw:
        guarded = ReplayGuardedFile(raw, _Comm())
        assert guarded.unguarded is raw
        assert guarded.scatter_write([(0, b"abcd")]) == 4
        assert guarded.gather_read([(0, 4)]) == [b"abcd"]


def test_direct_mode_counts_identical_across_engines():
    """The exec_once satellite: no replay inflation in direct mode."""
    from repro.backends.instrument import CountingBackend
    from repro.backends.simfs_backend import SimBackend
    from repro.fs.simfs import SimFS

    counts = {}
    for engine in ("threads", "bulk"):
        backend = CountingBackend(SimBackend(SimFS(blocksize_override=TEST_BLKSIZE)))
        n = 8

        def wtask(comm):
            f = paropen(
                "/e.sion", "w", comm, chunksize=TEST_BLKSIZE, backend=backend
            )
            f.fwrite(bytes([comm.rank]) * 700)  # spans two chunks
            f.parclose()

        run_spmd(n, wtask, engine=engine)

        def rtask(comm):
            f = paropen("/e.sion", "r", comm, backend=backend)
            data = f.read_all()
            f.parclose()
            return len(data)

        assert run_spmd(n, rtask, engine=engine) == [700] * n
        snap = backend.snapshot()
        counts[engine] = (
            snap["data_write_calls"],
            snap["data_read_calls"],
            snap["opens"],
        )
        # One scatter_write per task + the 3 metadata writes.
        assert snap["data_write_calls"] == n + 3
        # One gather_read per task + the set load's metadata reads (8).
        assert snap["data_read_calls"] == n + 8
    assert counts["threads"] == counts["bulk"]
