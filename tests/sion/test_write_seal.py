"""The write close seals the set for world rank 0, and holds nothing else.

``SionParallelFile.parclose`` is not a world barrier: a task hands its
block table to its file's master and returns; world rank 0 returns only
once every per-file master has appended metablock 2 (the seal token).
So (i) a collective re-open in the same body, and a serial open on world
rank 0 right after the close, see a sealed set on every engine; and
(ii) under the bulk engine — whose woken ranks run next — a close keeps
no writer's handle alive, neither a prefetch read nor a collective
write holds more than a few collector groups' bytes in flight, and a
direct read holds about one rank's stream.

The SPMD bodies are module-level, so the process-engine rows also run
under the ``spawn`` start method.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
import zlib

import pytest

import repro.sion.parallel as parallel
from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend
from repro.fs.simfs import SimFS
from repro.simmpi import run_spmd
from repro.sion import paropen, serial
from tests.conftest import TEST_BLKSIZE

NPROCS = 8
CHUNKSIZE = 300


def _payload(rank: int, n: int = 700) -> bytes:
    return bytes([rank % 251]) * (n + 37 * rank)  # spans chunks


def _backend(engine: str, tmp_path):
    if engine == "proc":  # rank processes share real files, not a SimFS
        return LocalBackend(blocksize_override=TEST_BLKSIZE), str(tmp_path / "s.sion")
    return SimBackend(SimFS(blocksize_override=TEST_BLKSIZE)), "/s.sion"


# --------------------------------------------------------------------------
# (i) The set is sealed where the rule says it is.


def _write_then_paropen(comm, path, backend, collectsize):
    # Round-robin puts file f's master on world rank f, and its last
    # member near the end of the world: masters 1-3 seal their files last.
    f = paropen(path, "w", comm, chunksize=CHUNKSIZE, nfiles=4, mapping="roundrobin",
                collectsize=collectsize, backend=backend)
    f.fwrite(_payload(comm.rank))
    f.parclose()
    g = paropen(path, "r", comm, collectsize=collectsize, backend=backend)
    data = g.read_all()
    g.parclose()
    return data


@pytest.mark.parametrize("collectsize", [None, 2], ids=["direct", "collective"])
@pytest.mark.parametrize("engine", ["threads", "bulk", "proc"])
def test_same_body_collective_reopen_reads_the_sealed_set(engine, collectsize, tmp_path):
    backend, path = _backend(engine, tmp_path)
    got = run_spmd(NPROCS, _write_then_paropen, path, backend, collectsize, engine=engine)
    assert got == [_payload(r) for r in range(NPROCS)]


def _write_then_serial_on_rank0(comm, path, backend, nfiles):
    f = paropen(path, "w", comm, chunksize=CHUNKSIZE, nfiles=nfiles, mapping="roundrobin",
                backend=backend)
    f.fwrite(_payload(comm.rank))
    f.parclose()
    if comm.rank != 0:
        return None
    with serial.open(path, "r", backend=backend) as sf:
        return [sf.read_task(r) for r in range(comm.size)]


@pytest.mark.parametrize("nfiles", [1, 4])
@pytest.mark.parametrize("engine", ["threads", "bulk", "proc"])
def test_world_rank_0_returns_from_a_write_close_with_the_set_sealed(engine, nfiles, tmp_path):
    backend, path = _backend(engine, tmp_path)
    got = run_spmd(NPROCS, _write_then_serial_on_rank0, path, backend, nfiles, engine=engine)
    assert got[0] == [_payload(r) for r in range(NPROCS)]


# --------------------------------------------------------------------------
# (ii) Bulk engine: what a write cycle keeps alive.

NBULK = 256


def test_a_master_seals_its_file_with_a_few_writer_handles_alive(monkeypatch):
    backend = SimBackend(SimFS(blocksize_override=4096))
    handles: list[weakref.ref] = []
    alive: list[int] = []
    write_metablock2 = parallel.write_metablock2

    def counting(*args):
        alive.append(len({id(h()) for h in handles if h() is not None}))
        return write_metablock2(*args)

    monkeypatch.setattr(parallel, "write_metablock2", counting)

    def write(comm):
        f = paropen("/h.sion", "w", comm, chunksize=1024, nfiles=4, backend=backend)
        handles.append(weakref.ref(f._raw.unguarded))  # the logged physical handle
        f.fwrite(b"x" * 100)
        f.parclose()

    run_spmd(NBULK, write, engine="bulk")
    # Parking every writer until the last file is sealed would keep all
    # NBULK handles alive at the last metablock-2 write.
    assert len(alive) == 4 and max(alive) <= 8, alive


def _traced(fn):
    """``(peak, retained)`` bytes that ``fn()`` allocated under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start, current - start


def test_prefetch_read_holds_a_few_collector_groups_in_flight():
    readers, k, per = 512, 8, 32 << 10  # 64 groups over 16 MiB
    backend = SimBackend(SimFS(blocksize_override=4096))

    def write(comm):
        f = paropen("/p.sion", "w", comm, chunksize=per, backend=backend)
        f.fwrite(bytes([comm.rank % 251]) * per)
        f.parclose()

    def read(comm):
        f = paropen("/p.sion", "r", comm, partitioned=True, collectsize=k, backend=backend)
        data = f.read_all()
        f.parclose()
        return data == bytes([comm.rank % 251]) * per

    run_spmd(readers, write, engine="bulk")
    ok: list[bool] = []
    peak, _ = _traced(lambda: ok.extend(run_spmd(readers, read, engine="bulk")))
    assert all(ok) and len(ok) == readers
    # Every group prefetching before any sender consumes would be all 64.
    assert peak <= 16 * k * per, peak / (k * per)


def test_direct_read_holds_about_one_rank_stream_in_flight():
    nprocs, per, piece = 8, 1 << 20, 12345  # chunk-spanning freads
    backend = SimBackend(SimFS(blocksize_override=4096))
    crcs = [zlib.crc32(bytes([r % 251]) * per) for r in range(nprocs)]

    def write(comm):
        f = paropen("/d.sion", "w", comm, chunksize=256 << 10, nfiles=2, backend=backend)
        f.fwrite(bytes([comm.rank % 251]) * per)
        f.parclose()

    def read(comm):
        f = paropen("/d.sion", "r", comm, backend=backend)
        crc = nbytes = 0
        while not f.feof():
            data = f.fread(piece)
            crc = zlib.crc32(data, crc)
            nbytes += len(data)
        f.parclose()
        return nbytes == per and crc == crcs[comm.rank]

    run_spmd(nprocs, write, engine="bulk")
    ok: list[bool] = []
    peak, _ = _traced(lambda: ok.extend(run_spmd(nprocs, read, engine="bulk")))
    assert all(ok) and len(ok) == nprocs
    # A rank's logged freads live until it returns; the first rank's, kept
    # as each column's shared value until the run ends, would add another.
    assert peak <= 3 * per // 2, peak / per


def test_collective_write_holds_a_few_collector_groups_in_flight():
    nprocs, k, per = 256, 8, 64 << 10  # 16 MiB through 32 collectors
    backend = SimBackend(SimFS(blocksize_override=4096))

    def write(comm):
        f = paropen("/c.sion", "w", comm, chunksize=per, collectsize=k, backend=backend)
        f.fwrite(bytes([comm.rank % 251]) * per)
        f.parclose()

    peak, stored = _traced(lambda: run_spmd(nprocs, write, engine="bulk"))
    with serial.open("/c.sion", "r", backend=backend) as sf:
        assert all(sf.read_task(r) == bytes([r % 251]) * per for r in (0, 129, nprocs - 1))
    # Every group's fragments in flight at once would be the payload again.
    assert peak - stored < nprocs * per // 4, (peak - stored) / (nprocs * per)
