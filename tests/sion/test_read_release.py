"""A matched read leaves no replay log behind its readers (bulk engine).

Each task of a ``paropen "r"`` holds only its own stream (paper
Listing 2).  The read ``parclose`` does not synchronize, so a reader runs
once, from open to return, and the engine frees the bytes it logged when
it returns: the read's memory peak is a few ranks' bytes, not the whole
payload.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.backends.simfs_backend import SimBackend
from repro.fs.simfs import SimFS
from repro.simmpi import run_spmd
from repro.sion import paropen

PATH = "/release.sion"
NPROCS = 256
PER_RANK = 64 << 10


def _payload(rank: int) -> bytes:
    return bytes([rank % 251]) * PER_RANK


def _written() -> SimBackend:
    backend = SimBackend(SimFS(blocksize_override=4096))

    def write(comm):
        f = paropen(PATH, "w", comm, chunksize=PER_RANK, backend=backend)
        f.fwrite(_payload(comm.rank))
        f.parclose()

    run_spmd(NPROCS, write, engine="bulk")
    return backend


def _read(comm, backend):
    f = paropen(PATH, "r", comm, backend=backend)
    data = f.read_all()
    f.parclose()
    if data != _payload(comm.rank):
        raise AssertionError(f"rank {comm.rank} read the wrong bytes")
    return len(data)


def test_read_peak_is_a_few_ranks_not_the_payload():
    backend = _written()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert run_spmd(NPROCS, _read, backend, engine="bulk") == [PER_RANK] * NPROCS
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # Retaining every reader's bytes would be NPROCS * PER_RANK = 16 MiB.
    assert peak < 16 * PER_RANK, peak


def test_each_reader_executes_once():
    backend = _written()
    stats: dict = {}
    run_spmd(NPROCS, _read, backend, engine="bulk", engine_stats=stats)
    assert stats["executions"] == NPROCS
    assert [name for _, name, _, _ in stats["waves"]] == ["bcast"]
