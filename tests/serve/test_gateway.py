"""The read gateway against the serial view: sessions, ranges, freshness."""

from __future__ import annotations

import asyncio

import pytest

from repro.backends.instrument import CountingBackend
from repro.backends.simfs_backend import SimBackend
from repro.errors import SionUsageError
from repro.fs.simfs import SimFS
from repro.serve import ReadGateway
from repro.simmpi import run_spmd
from repro.sion import paropen, serial
from repro.sion.mapping import ReadPartition

NTASKS = 24
PATH = "/scratch/srv.sion"


def _payload(rank: int) -> bytes:
    return bytes((rank * 13 + i) % 256 for i in range(40 + rank * 7))


def _sealed_backend(nfiles=2, compress=False, payload=_payload):
    fs = SimFS(blocksize_override=512)
    backend = CountingBackend(SimBackend(fs))

    def program(comm):
        f = paropen(
            PATH, "w", comm, chunksize=256, nfiles=nfiles,
            backend=backend, compress=compress,
        )
        f.fwrite(payload(comm.rank))
        f.parclose()

    run_spmd(NTASKS, program, engine="threads")
    return backend


@pytest.fixture
def backend():
    return _sealed_backend()


def _expected(backend):
    with serial.open(PATH, "r", backend=backend) as sf:
        return {r: sf.read_task(r) for r in range(NTASKS)}


def test_partitioned_sessions_match_serial_view(backend):
    expected = _expected(backend)
    gw = ReadGateway(backend=backend, cache_bytes=1 << 20, cache_block=512)
    readers = 5
    part = ReadPartition.balanced(NTASKS, readers)

    async def drive():
        for r in range(readers):
            sid = await gw.open_session(PATH, readers=readers, reader=r)
            data = await gw.read_all(sid)
            assert data == b"".join(expected[w] for w in part.writers_of(r))
            assert await gw.session_eof(sid)
            await gw.close_session(sid)

    asyncio.run(drive())
    snap = gw.snapshot()
    assert snap["sessions_opened"] == readers
    assert snap["sessions_active"] == 0
    assert snap["containers_opened"] == 1


def test_single_rank_session_chunked_reads(backend):
    expected = _expected(backend)
    gw = ReadGateway(backend=backend, cache_bytes=1 << 20, cache_block=512)

    async def drive():
        sid = await gw.open_session(PATH, rank=7)
        out = b""
        while not await gw.session_eof(sid):
            piece = await gw.read(sid, 9)
            if not piece:
                break
            out += piece
        assert out == expected[7]
        await gw.close_session(sid)

    asyncio.run(drive())


def test_stateless_range_and_task_reads(backend):
    expected = _expected(backend)
    gw = ReadGateway(backend=backend, cache_bytes=1 << 20, cache_block=512)

    async def drive():
        assert await gw.read_task(PATH, 3) == expected[3]
        assert await gw.read_range(PATH, 3, 0, 10) == expected[3][:10]
        assert await gw.read_range(PATH, 3, 17, 9) == expected[3][17:26]
        # Past-EOF and zero-length ranges are empty, not errors.
        assert await gw.read_range(PATH, 3, len(expected[3]), 4) == b""
        assert await gw.read_range(PATH, 3, 2, 0) == b""
        # A range crossing a chunk boundary (chunksize 256).
        whole = expected[NTASKS - 1]
        assert await gw.read_range(PATH, NTASKS - 1, 0, len(whole)) == whole

    asyncio.run(drive())


def test_concurrent_sessions_interleave(backend):
    expected = _expected(backend)
    gw = ReadGateway(backend=backend, cache_bytes=1 << 20, cache_block=512)

    async def one(rank):
        sid = await gw.open_session(PATH, rank=rank)
        out = b""
        while True:
            piece = await gw.read(sid, 5)
            if not piece:
                break
            out += piece
        await gw.close_session(sid)
        return rank, out

    async def drive():
        results = await asyncio.gather(*(one(r) for r in range(NTASKS)))
        for rank, data in results:
            assert data == expected[rank]

    asyncio.run(drive())
    assert gw.snapshot()["sessions_peak"] == NTASKS


def test_warm_reads_bypass_the_backend(backend):
    gw = ReadGateway(backend=backend, cache_bytes=1 << 20, cache_block=512)

    async def sweep():
        for r in range(NTASKS):
            await gw.read_task(PATH, r)

    asyncio.run(sweep())
    before = backend.snapshot()["data_read_calls"]
    asyncio.run(sweep())
    after = backend.snapshot()["data_read_calls"]
    assert after - before == 0  # everything from cache
    cache = gw.cache.snapshot()
    assert cache["hit_rate"] >= 0.5
    assert cache["bytes_served"] > 0


def test_reseal_detection_drops_stale_generation(backend):
    gw = ReadGateway(backend=backend, cache_bytes=1 << 20, cache_block=512)

    async def read3():
        return await gw.read_task(PATH, 3)

    old = asyncio.run(read3())
    gen1 = gw.open_container(PATH).generation

    # Re-seal the container with different content (metadata changes:
    # different byte counts per stream).
    def program(comm):
        f = paropen(PATH, "w", comm, chunksize=256, nfiles=2, backend=backend)
        f.fwrite(b"NEW-%03d" % comm.rank)
        f.parclose()

    run_spmd(NTASKS, program, engine="threads")
    fresh = asyncio.run(read3())
    assert fresh == b"NEW-003"
    assert fresh != old
    handle = gw.open_container(PATH)
    assert handle.generation != gen1
    snap = gw.snapshot()
    assert snap["reseals_detected"] == 1
    assert gw.cache.snapshot()["invalidations"] > 0


def test_refresh_forces_new_generation(backend):
    gw = ReadGateway(backend=backend, cache_bytes=1 << 20, cache_block=512)
    gen1 = gw.open_container(PATH).generation
    assert gw.open_container(PATH).generation == gen1  # fast-path reuse
    assert gw.open_container(PATH, refresh=True).generation != gen1


def test_compressed_container_sessions():
    backend = _sealed_backend(compress=True)
    expected = _expected(backend)
    gw = ReadGateway(backend=backend, cache_bytes=1 << 20, cache_block=512)

    async def drive():
        part = ReadPartition.balanced(NTASKS, 4)
        for r in range(4):
            sid = await gw.open_session(PATH, readers=4, reader=r)
            data = await gw.read_all(sid)
            assert data == b"".join(expected[w] for w in part.writers_of(r))
            await gw.close_session(sid)
        assert await gw.read_task(PATH, 5) == expected[5]
        with pytest.raises(SionUsageError):
            await gw.read_range(PATH, 5, 0, 4)

    asyncio.run(drive())


def test_session_argument_validation(backend):
    gw = ReadGateway(backend=backend)

    async def drive():
        with pytest.raises(SionUsageError):
            await gw.open_session(PATH)  # neither shape
        with pytest.raises(SionUsageError):
            await gw.open_session(PATH, rank=1, readers=2, reader=0)  # both
        with pytest.raises(SionUsageError):
            await gw.open_session(PATH, readers=4)  # half a shape
        with pytest.raises(SionUsageError):
            await gw.open_session(PATH, rank=NTASKS)  # out of range
        with pytest.raises(SionUsageError):
            await gw.open_session(PATH, readers=4, reader=4)
        with pytest.raises(SionUsageError):
            await gw.read(999, 4)  # unknown session
        sid = await gw.open_session(PATH, rank=0)
        await gw.close_session(sid)
        with pytest.raises(SionUsageError):
            await gw.close_session(sid)  # already closed

    asyncio.run(drive())


def test_gateway_close_retires_everything(backend):
    gw = ReadGateway(backend=backend, cache_bytes=1 << 20, cache_block=512)

    async def drive():
        await gw.open_session(PATH, rank=0)

    asyncio.run(drive())
    gw.close()
    snap = gw.snapshot()
    assert snap["containers"] == {}
    assert snap["sessions_active"] == 0
    assert gw.cache.snapshot()["entry_count"] == 0
