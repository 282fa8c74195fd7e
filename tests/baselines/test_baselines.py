"""The two traditional approaches: task-local files and single-file-sequential."""

import pytest

from repro.baselines.singlefile import read_single_file, write_single_file
from repro.baselines.tasklocal import (
    read_task_local,
    task_local_path,
    unlink_task_local,
    write_task_local,
)
from repro.errors import SionUsageError, SpmdWorkerError
from repro.simmpi import run_spmd


def _payload(rank, n=500):
    return bytes((rank * 3 + i) % 256 for i in range(n))


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

    def test_unlink(self, any_backend):
        backend, base = any_backend
        prefix = f"{base}/gone"
        run_spmd(3, lambda c: write_task_local(c, prefix, b"x", backend=backend))
        run_spmd(3, lambda c: unlink_task_local(c, prefix, backend=backend))
        assert not backend.exists(f"{prefix}.000000")


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

    def test_invalid_slab_bytes(self, any_backend):
        backend, base = any_backend

        def wtask(comm):
            write_single_file(comm, f"{base}/x", b"d", backend=backend, slab_bytes=0)

        with pytest.raises(SpmdWorkerError):
            run_spmd(2, wtask)
