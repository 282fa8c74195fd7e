"""The two traditional approaches: task-local files and single-file-sequential."""

import hashlib

import pytest

from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend
from repro.baselines.singlefile import (
    DEFAULT_SLAB_BYTES,
    read_single_file,
    write_single_file,
)
from repro.baselines.tasklocal import (
    read_task_local,
    task_local_path,
    write_task_local,
)
from repro.errors import SionUsageError, SpmdWorkerError
from repro.fs.simfs import SimFS
from repro.simmpi import run_spmd


def _payload(rank, n=500):
    return bytes((rank * 3 + i) % 256 for i in range(n))


#: Per-rank payload sizes of the pinned single-file checkpoint: an empty
#: task, a task smaller than a slab, one spanning many, one exactly one.
PINNED_SIZES = [0, 5, 1000, 64]
#: sha256 of that checkpoint; the file bytes depend on neither the slab
#: size nor the root.
PINNED_SHA256 = "a90ce59df566806038efbe87443eef6b5290e1d8ed62cfbe20c1819e53aebe1e"


def _write_pinned(comm, path, slab_bytes, root):
    write_single_file(
        comm, path, _payload(comm.rank, PINNED_SIZES[comm.rank]),
        backend=LocalBackend(), slab_bytes=slab_bytes, root=root,
    )


def _read_pinned(comm, path, slab_bytes, root):
    return read_single_file(
        comm, path, backend=LocalBackend(), slab_bytes=slab_bytes, root=root
    )


class TestTaskLocal:
    def test_naming_convention(self):
        assert task_local_path("/d/ckpt", 7) == "/d/ckpt.000007"
        with pytest.raises(SionUsageError):
            task_local_path("x", -1)

    def test_roundtrip(self, any_backend):
        backend, base = any_backend
        prefix = f"{base}/tl"

        def wtask(comm):
            return write_task_local(comm, prefix, _payload(comm.rank), backend=backend)

        paths = run_spmd(4, wtask)
        assert paths == [f"{prefix}.{r:06d}" for r in range(4)]

        def rtask(comm):
            return read_task_local(comm, prefix, backend=backend)

        out = run_spmd(4, rtask)
        assert all(out[r] == _payload(r) for r in range(4))

    def test_one_file_per_task_created(self, sim_backend):
        backend = sim_backend
        prefix = "/scratch/many"
        run_spmd(8, lambda c: write_task_local(c, prefix, b"x", backend=backend))
        # The simulated FS counted 8 creates: the paper's core problem.
        assert backend.fs.op_counts["create"] == 8


class TestSingleFile:
    def test_roundtrip(self, any_backend):
        backend, base = any_backend
        path = f"{base}/single.ckpt"
        sizes = [100, 0, 2500, 700]

        def wtask(comm):
            write_single_file(comm, path, _payload(comm.rank, sizes[comm.rank]),
                              backend=backend)

        run_spmd(4, wtask)
        assert backend.exists(path)

        def rtask(comm):
            return read_single_file(comm, path, backend=backend)

        out = run_spmd(4, rtask)
        assert all(out[r] == _payload(r, sizes[r]) for r in range(4))

    def test_small_slabs_force_many_rounds(self, any_backend):
        """Bounded gather slabs still reassemble correctly."""
        backend, base = any_backend
        path = f"{base}/slabbed.ckpt"

        def wtask(comm):
            write_single_file(comm, path, _payload(comm.rank, 1000),
                              backend=backend, slab_bytes=64)

        run_spmd(3, wtask)

        def rtask(comm):
            return read_single_file(comm, path, backend=backend, slab_bytes=64)

        out = run_spmd(3, rtask)
        assert all(out[r] == _payload(r, 1000) for r in range(3))

    def test_only_root_touches_the_file(self, sim_backend):
        backend = sim_backend
        path = "/scratch/root-only.ckpt"
        run_spmd(4, lambda c: write_single_file(c, path, b"data", backend=backend))
        assert backend.fs.op_counts["create"] == 1

    def test_bulk_replay_issues_each_root_call_once(self):
        """The root's backend calls run once per rank body: a bulk world,
        which replays bodies, leaves the same ``op_counts`` as threads."""
        counts = {}
        for engine in ("threads", "bulk"):
            fs = SimFS(blocksize_override=4096)
            fs.mkdir("/scratch")
            backend = SimBackend(fs)
            path = "/scratch/replay.ckpt"
            run_spmd(8, lambda c: write_single_file(
                c, path, _payload(c.rank, 1000), backend=backend, slab_bytes=512
            ), engine=engine)
            out = run_spmd(8, lambda c: read_single_file(
                c, path, backend=backend, slab_bytes=512
            ), engine=engine)
            assert out == [_payload(r, 1000) for r in range(8)]
            counts[engine] = dict(fs.op_counts)
        assert counts["threads"]["write_bytes"] == counts["threads"]["read_bytes"] == 8076
        assert counts["bulk"] == counts["threads"]

    def test_nonzero_root(self, any_backend):
        backend, base = any_backend
        path = f"{base}/root2.ckpt"

        def wtask(comm):
            write_single_file(comm, path, _payload(comm.rank, 64),
                              backend=backend, root=2)

        run_spmd(4, wtask)

        def rtask(comm):
            return read_single_file(comm, path, backend=backend, root=2)

        out = run_spmd(4, rtask)
        assert all(out[r] == _payload(r, 64) for r in range(4))

    def test_task_count_mismatch_rejected(self, any_backend):
        backend, base = any_backend
        path = f"{base}/mismatch.ckpt"
        run_spmd(3, lambda c: write_single_file(c, path, b"x", backend=backend))

        def rtask(comm):
            return read_single_file(comm, path, backend=backend)

        with pytest.raises(SpmdWorkerError):
            run_spmd(2, rtask)

    def test_bad_header_rejected(self, any_backend):
        backend, base = any_backend
        path = f"{base}/garbage.ckpt"
        with backend.open(path, "wb") as f:
            f.pwrite(0, b"not a checkpoint at all........")

        with pytest.raises(SpmdWorkerError):
            run_spmd(2, lambda c: read_single_file(c, path, backend=backend))

    @pytest.mark.parametrize("slab_bytes", [0, -1])
    @pytest.mark.parametrize("side", ["write", "read"])
    def test_invalid_slab_bytes(self, any_backend, side, slab_bytes):
        backend, base = any_backend
        path = f"{base}/x"  # never created: the check comes first

        def task(comm):
            if side == "write":
                write_single_file(comm, path, b"d", backend=backend,
                                  slab_bytes=slab_bytes)
            else:
                read_single_file(comm, path, backend=backend, slab_bytes=slab_bytes)

        with pytest.raises(SpmdWorkerError) as info:
            run_spmd(2, task)
        for exc in info.value.failures.values():
            assert isinstance(exc, SionUsageError)
            assert str(exc) == "slab_bytes must be positive"

    @pytest.mark.parametrize("engine", ["threads", "bulk", "proc"])
    @pytest.mark.parametrize(
        "slab_bytes, root", [(64, 0), (64, 2), (DEFAULT_SLAB_BYTES, 0)]
    )
    def test_file_bytes_are_pinned(self, tmp_path, engine, slab_bytes, root):
        """The format does not move: the same bytes on every engine, for
        any slab size and root, and every rank reads its payload back."""
        path = str(tmp_path / "pinned.ckpt")
        run_spmd(4, _write_pinned, path, slab_bytes, root, engine=engine)
        with open(path, "rb") as f:
            assert hashlib.sha256(f.read()).hexdigest() == PINNED_SHA256
        out = run_spmd(4, _read_pinned, path, slab_bytes, root, engine=engine)
        assert out == [_payload(r, n) for r, n in enumerate(PINNED_SIZES)]
