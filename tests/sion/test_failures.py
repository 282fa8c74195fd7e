"""Failure injection: damaged sets must fail loudly and precisely."""

import pytest

from repro.errors import (
    SionFormatError,
    SionUsageError,
    SpmdWorkerError,
)
from repro.sion import open_rank, paropen, serial
from repro.sion.mapping import physical_path
from repro.simmpi import run_spmd
from tests.conftest import TEST_BLKSIZE


def _make(path, backend, ntasks=4, nfiles=2):
    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, nfiles=nfiles,
                    backend=backend)
        f.fwrite(bytes([comm.rank]) * 700)
        f.parclose()

    run_spmd(ntasks, task)


def test_missing_sibling_fails_parallel_read(any_backend):
    backend, base = any_backend
    path = f"{base}/m.sion"
    _make(path, backend, nfiles=2)
    backend.unlink(physical_path(path, 1))

    def rtask(comm):
        paropen(path, "r", comm, backend=backend)

    with pytest.raises(SpmdWorkerError):
        run_spmd(4, rtask)


def test_missing_sibling_fails_serial_open(any_backend):
    backend, base = any_backend
    path = f"{base}/m2.sion"
    _make(path, backend, nfiles=3)
    backend.unlink(physical_path(path, 2))
    with pytest.raises(Exception):
        serial.open(path, "r", backend=backend)


def test_garbage_file_rejected_with_format_error(any_backend):
    backend, base = any_backend
    path = f"{base}/garbage.sion"
    with backend.open(path, "wb") as f:
        f.pwrite(0, b"this is not a multifile" * 10)
    with pytest.raises(SionFormatError):
        serial.open(path, "r", backend=backend)


def test_empty_file_rejected(any_backend):
    backend, base = any_backend
    path = f"{base}/empty.sion"
    backend.open(path, "wb").close()
    with pytest.raises(SionFormatError, match="too short"):
        serial.open(path, "r", backend=backend)


def test_truncated_metablock2_rejected(any_backend):
    backend, base = any_backend
    path = f"{base}/trunc.sion"
    _make(path, backend, nfiles=1)
    with backend.open(path, "rb") as f:  # tear: rewrite all but the CRC
        prefix = f.pread(0, backend.file_size(path) - 4)
    with backend.open(path, "wb") as f:
        f.pwrite(0, prefix)
    with pytest.raises(SionFormatError):
        serial.open(path, "r", backend=backend)


def test_unclosed_multifile_names_the_problem(any_backend):
    backend, base = any_backend
    path = f"{base}/unclosed.sion"

    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        f.fwrite(b"x" * 100)
        f._raw.close()  # crash before parclose

    run_spmd(2, task)
    with pytest.raises(SionFormatError, match="never closed"):
        serial.open(path, "r", backend=backend)


def test_corrupted_chunk_data_does_not_break_metadata(any_backend):
    """Data damage is the user's problem; metadata stays readable."""
    backend, base = any_backend
    path = f"{base}/flip.sion"
    _make(path, backend, nfiles=1)
    with serial.open(path, "r", backend=backend) as sf:
        loc = sf.get_locations()
    # Flip bytes inside task 0's chunk.
    with backend.open(path, "r+b") as f:
        f.pwrite(loc.fsblksize + 5, b"\xde\xad")
    with serial.open(path, "r", backend=backend) as sf:
        assert sf.get_locations().nblocks == loc.nblocks
        data = sf.read_task(0)
        assert len(data) == 700  # length intact, content (rightly) changed


def test_rank_file_survives_other_files_damage(any_backend):
    """Task-local view of file 0 must not require reading file 1."""
    backend, base = any_backend
    path = f"{base}/partial.sion"
    _make(path, backend, ntasks=4, nfiles=2)
    # Destroy physical file 1 (ranks 2,3); ranks 0,1 live in file 0.
    with backend.open(physical_path(path, 1), "wb") as f:
        f.pwrite(0, b"gone")
    with open_rank(path, 0, backend=backend) as rf:
        assert rf.read_all() == bytes([0]) * 700
    with pytest.raises(SionFormatError):
        open_rank(path, 3, backend=backend)


def test_partial_rank_failure_during_write_aborts_cleanly(any_backend):
    backend, base = any_backend
    path = f"{base}/die.sion"

    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        if comm.rank == 1:
            raise RuntimeError("rank 1 dies mid-write")
        f.fwrite(b"y" * 100)
        f.parclose()

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, task)
    assert 1 in exc_info.value.failures


def test_reading_write_handle_and_vice_versa(any_backend):
    backend, base = any_backend
    path = f"{base}/modes2.sion"
    _make(path, backend, ntasks=2, nfiles=1)

    def rtask(comm):
        f = paropen(path, "r", comm, backend=backend)
        caught = []
        for op in (lambda: f.fwrite(b"x"), lambda: f.ensure_free_space(1),
                   lambda: f.flush_shadow()):
            try:
                op()
            except SionUsageError:
                caught.append(True)
        f.parclose()
        return caught

    assert run_spmd(2, rtask) == [[True, True, True]] * 2


def test_interleaved_different_multifiles(any_backend):
    """Two multifiles open at once per task don't interfere."""
    backend, base = any_backend
    p1, p2 = f"{base}/a.sion", f"{base}/b.sion"

    def task(comm):
        fa = paropen(p1, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        fb = paropen(p2, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        for i in range(10):
            fa.fwrite(b"A" * 50)
            fb.fwrite(b"B" * 70)
        fa.parclose()
        fb.parclose()

    run_spmd(3, task)
    with serial.open(p1, "r", backend=backend) as sf:
        assert sf.read_task(1) == b"A" * 500
    with serial.open(p2, "r", backend=backend) as sf:
        assert sf.read_task(2) == b"B" * 700
