"""Collector-rank aggregation (ISSUE 4): byte-identical, fewer writers.

The contract under test:

* collective-mode multifiles are **byte-identical** to direct-mode files
  for arbitrary write schedules (hypothesis-verified), on both SPMD
  engines, across nfiles x collectsize shapes;
* backend data calls scale with the number of collectors, not tasks;
* the serial tools (``serial.open``, ``open_rank``, dump/cat/verify)
  read collector-written files **without any changes** — the aggregation
  is invisible outside the open file handle.
"""

from __future__ import annotations

import io

from hypothesis import given, settings, strategies as st
import pytest

from repro.backends.instrument import CountingBackend
from repro.backends.simfs_backend import SimBackend
from repro.errors import SionUsageError, SpmdWorkerError
from repro.fs.simfs import SimFS
from repro.simmpi import run_spmd
from repro.sion import SionCollectiveFile, paropen, resolve_collectsize, serial
from repro.sion.mapping import physical_path
from repro.utils.cat import cat_rank
from repro.utils.dump import dump_multifile
from repro.utils.verify import verify_multifile

BLK = 512
ENGINES = ("threads", "bulk")


def _backend():
    fs = SimFS(blocksize_override=BLK)
    fs.mkdir("/s")
    return SimBackend(fs)


def _payload(rank: int, n: int) -> bytes:
    return bytes((rank * 31 + i) % 256 for i in range(n))


def _physical_bytes(backend, path: str, nfiles: int) -> list[bytes]:
    out = []
    for fn in range(nfiles):
        p = physical_path(path, fn)
        with backend.open(p, "rb") as f:
            out.append(f.pread(0, backend.file_size(p)))
    return out


def _write(backend, ntasks, schedules, *, engine="threads", collectsize=None,
           nfiles=1, chunksize=BLK, path="/s/c.sion", **kw):
    """Each rank fwrite()s its schedule's pieces in order."""

    def task(comm):
        f = paropen(path, "w", comm, chunksize=chunksize, nfiles=nfiles,
                    backend=backend, collectsize=collectsize, **kw)
        pos = 0
        for size in schedules[comm.rank]:
            f.fwrite(_payload(comm.rank, pos + size)[pos:])
            pos += size
        f.parclose()

    run_spmd(ntasks, task, engine=engine)


def _read_all(backend, ntasks, *, engine="threads", collectsize=None,
              path="/s/c.sion"):
    def task(comm):
        f = paropen(path, "r", comm, backend=backend, collectsize=collectsize)
        data = f.read_all()
        f.parclose()
        return data

    return run_spmd(ntasks, task, engine=engine)


# --------------------------------------------------------------------------
# Conformance matrix: engines x nfiles x collectsize.


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("ntasks,nfiles,collectsize", [
    (1, 1, 1),      # degenerate: every task its own collector
    (4, 1, 2),
    (6, 2, 2),
    (7, 3, 3),      # uneven groups and uneven files
    (8, 1, 8),      # one collector for the whole file
    (8, 2, 64),     # collectsize larger than the file: clamps to one group
])
def test_conformance_matrix_byte_identical(engine, ntasks, nfiles, collectsize):
    sizes = [100 + 137 * r for r in range(ntasks)]  # multi-block for most
    schedules = [[s] for s in sizes]
    direct = _backend()
    _write(direct, ntasks, schedules, engine=engine, nfiles=nfiles)
    coll = _backend()
    _write(coll, ntasks, schedules, engine=engine, nfiles=nfiles,
           collectsize=collectsize)
    assert _physical_bytes(direct, "/s/c.sion", nfiles) == _physical_bytes(
        coll, "/s/c.sion", nfiles
    )
    # Collective read-back of a collective-written file round-trips.
    out = _read_all(coll, ntasks, engine=engine, collectsize=collectsize)
    assert out == [_payload(r, sizes[r]) for r in range(ntasks)]


@pytest.mark.parametrize("engine", ENGINES)
def test_cross_mode_readback(engine):
    # Direct-written files read collectively and vice versa.
    sizes = [700 + 43 * r for r in range(5)]
    schedules = [[s] for s in sizes]
    expected = [_payload(r, sizes[r]) for r in range(5)]
    a = _backend()
    _write(a, 5, schedules, engine=engine)  # direct write
    assert _read_all(a, 5, engine=engine, collectsize=2) == expected
    b = _backend()
    _write(b, 5, schedules, engine=engine, collectsize=3)  # collective write
    assert _read_all(b, 5, engine=engine) == expected


@pytest.mark.parametrize("feature", ["shadow", "compress"])
def test_shadow_and_compress_ride_along(feature):
    kw = {feature: True}
    schedules = [[800, 800, 900]] * 4
    direct = _backend()
    _write(direct, 4, schedules, **kw)
    coll = _backend()
    _write(coll, 4, schedules, collectsize=2, **kw)
    assert _physical_bytes(direct, "/s/c.sion", 1) == _physical_bytes(
        coll, "/s/c.sion", 1
    )
    out = _read_all(coll, 4, collectsize=2)
    assert out == [_payload(r, 2500) for r in range(4)]


# --------------------------------------------------------------------------
# Hypothesis: arbitrary write schedules are byte-identical to direct mode.


@settings(max_examples=25, deadline=None)
@given(
    schedules=st.lists(
        st.lists(st.integers(min_value=0, max_value=1300), min_size=0, max_size=4),
        min_size=2,
        max_size=6,
    ),
    nfiles=st.integers(min_value=1, max_value=3),
    collectsize=st.integers(min_value=1, max_value=7),
    chunksize=st.sampled_from([128, 500, 512]),
)
def test_arbitrary_schedules_byte_identical(schedules, nfiles, collectsize, chunksize):
    ntasks = len(schedules)
    nfiles = min(nfiles, ntasks)
    direct = _backend()
    _write(direct, ntasks, schedules, nfiles=nfiles, chunksize=chunksize)
    coll = _backend()
    _write(coll, ntasks, schedules, nfiles=nfiles, chunksize=chunksize,
           collectsize=collectsize)
    assert _physical_bytes(direct, "/s/c.sion", nfiles) == _physical_bytes(
        coll, "/s/c.sion", nfiles
    )
    expected = [_payload(r, sum(s)) for r, s in enumerate(schedules)]
    assert _read_all(coll, ntasks, collectsize=collectsize) == expected


# --------------------------------------------------------------------------
# Aggregation facts: calls scale with collectors; handle surface.


def test_backend_calls_scale_with_collectors():
    ntasks, collectsize = 12, 4  # -> 3 collectors
    backend = CountingBackend(_backend())
    schedules = [[64]] * ntasks
    _write(backend, ntasks, schedules, collectsize=collectsize)
    calls = dict(backend.stats.calls)
    assert calls["scatter_write"] == 3  # one wave per collector
    assert backend.snapshot()["data_write_calls"] == 3 + 3  # + mb1/mb2/patch
    assert backend.snapshot()["opens"] == 3 + 1  # collectors + mb1 create
    before = backend.snapshot()
    _read_all(backend, ntasks, collectsize=collectsize)
    assert dict(backend.stats.calls)["gather_read"] == 3  # one prefetch each
    # Collector handles + the set load, which opens the one file once.
    assert backend.snapshot()["opens"] - before["opens"] == 3 + 1


def test_handle_surface_and_flush_collective():
    backend = CountingBackend(_backend())

    def task(comm):
        f = paropen("/s/w.sion", "w", comm, chunksize=BLK, backend=backend,
                    collectors=2)
        assert isinstance(f, SionCollectiveFile)
        f.fwrite(_payload(comm.rank, 300))
        f.flush_collective()  # explicit early wave
        comm.barrier()  # both collectors' waves done before sampling
        waves_after_flush = backend.stats.calls.get("scatter_write", 0)
        comm.barrier()  # every rank sampled before any group's final wave
        f.fwrite(_payload(comm.rank, 600)[300:])
        f.parclose()
        return (f.collectsize, f.is_collector, f.collector_lrank,
                waves_after_flush)

    out = run_spmd(4, task)
    assert [o[0] for o in out] == [2, 2, 2, 2]
    assert [o[1] for o in out] == [True, False, True, False]
    assert [o[2] for o in out] == [0, 0, 2, 2]
    assert all(o[3] == 2 for o in out)  # both collectors flushed early
    # Two waves per collector in total.
    assert backend.stats.calls["scatter_write"] == 4
    assert _read_all(backend, 4, path="/s/w.sion") == [
        _payload(r, 600) for r in range(4)
    ]


def test_senders_never_touch_the_store():
    class ExplodingBackend(CountingBackend):
        def __init__(self, inner, allowed):
            super().__init__(inner)
            self.allowed = allowed

        def open(self, path, mode):
            import threading

            name = threading.current_thread().name
            if name.startswith("spmd-rank-") and name not in self.allowed:
                raise AssertionError(f"sender {name} opened the store")
            return super().open(path, mode)

    # collectsize 4 over 4 tasks -> only rank 0 may open (thread engine
    # names worker threads spmd-rank-N).
    backend = ExplodingBackend(_backend(), {"spmd-rank-0"})
    _write(backend, 4, [[256]] * 4, collectsize=4)
    assert backend.snapshot()["opens"] == 2  # mb1 create + collector handle


# --------------------------------------------------------------------------
# Serial tools need no changes: prove it on a collector-written file.


def test_serial_tools_read_collective_files_unchanged():
    backend = _backend()
    sizes = [900, 0, 1400, 333]
    _write(backend, 4, [[s] for s in sizes], collectsize=3, nfiles=2)

    # Global view: locations account exactly the written bytes.
    with serial.open("/s/c.sion", "r", backend=backend) as sf:
        loc = sf.get_locations()
        assert loc.total_bytes() == sum(sizes)
        for r, size in enumerate(sizes):
            assert loc.total_bytes(r) == size

    # Task-local view via open_rank (what cat uses).
    sink = io.BytesIO()
    assert cat_rank("/s/c.sion", 2, out=sink, backend=backend) == 1400
    assert sink.getvalue() == _payload(2, 1400)

    # Dump and verify run clean.
    summary = dump_multifile("/s/c.sion", backend=backend)
    assert summary.ntasks == 4 and summary.nfiles == 2
    assert summary.total_bytes == sum(sizes)
    report = verify_multifile("/s/c.sion", backend=backend)
    assert report.ok, report.errors


# --------------------------------------------------------------------------
# Parameter validation.


def test_collectsize_and_collectors_are_exclusive():
    assert resolve_collectsize(None, None, 8) is None
    assert resolve_collectsize(4, None, 8) == 4
    assert resolve_collectsize(None, 2, 8) == 4
    assert resolve_collectsize(None, 3, 8) == 3  # ceil(8/3)
    assert resolve_collectsize(None, 100, 8) == 1  # clamped to ntasks
    with pytest.raises(SionUsageError, match="not both"):
        resolve_collectsize(2, 2, 8)
    with pytest.raises(SionUsageError, match=">= 1"):
        resolve_collectsize(0, None, 8)
    with pytest.raises(SionUsageError, match=">= 1"):
        resolve_collectsize(None, 0, 8)


def test_bad_collectsize_fails_the_open():
    backend = _backend()

    def task(comm):
        paropen("/s/x.sion", "w", comm, chunksize=BLK, backend=backend,
                collectsize=0)

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, task)


def test_sender_stream_refuses_direct_io():
    backend = _backend()

    def task(comm):
        f = paropen("/s/x.sion", "w", comm, chunksize=BLK, backend=backend,
                    collectsize=2)
        f.fwrite(b"ok")
        f.parclose()
        with pytest.raises(SionUsageError, match="closed"):
            f.fwrite(b"late")
        return True

    assert run_spmd(2, task) == [True, True]
