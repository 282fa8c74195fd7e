"""A metablock 2 that overstates a block is rejected wherever it is decoded.

Two tasks write 10 bytes each into 16-byte chunks aligned to 64-byte
blocks; metablock 2 is then rewritten to claim 100 bytes for task 0.
Without a bounds check, a reader of task 0 would get its 10 bytes, the
chunk padding, task 1's bytes and more padding — another task's data,
silently.  Every surface that decodes metablock 2 must refuse instead,
naming the file, the task and the block.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.backends.simfs_backend import SimBackend
from repro.errors import ReproError, SionFormatError
from repro.fs.simfs import SimFS
from repro.serve import ReadGateway
from repro.simmpi import run_spmd
from repro.sion import buddy_path, paropen, recover_multifile, serial
from repro.sion.format import Metablock1, Metablock2
from repro.sion.recovery import qualify_replica
from repro.utils.verify import verify_multifile

PATH = "/bt.sion"
OVERSTATED = "task 0 block 0 records 100 bytes"


def _payload(rank: int) -> bytes:
    return bytes([ord("A") + rank]) * 10


def _write(ntasks: int = 2, **options) -> SimBackend:
    backend = SimBackend(SimFS(blocksize_override=64))

    def task(comm):
        f = paropen(PATH, "w", comm, chunksize=16, fsblksize=64, backend=backend,
                    **options)
        f.fwrite(_payload(comm.rank))
        f.parclose()

    run_spmd(ntasks, task, engine="bulk")
    return backend


def _rewrite_mb2(backend: SimBackend, path: str, blocksizes: list[list[int]]) -> None:
    raw = backend.open(path, "r+b")
    try:
        mb1 = Metablock1.decode_from(raw)
        raw.pwrite(mb1.metablock2_offset, Metablock2(blocksizes).encode())
    finally:
        raw.close()


@pytest.fixture
def overstated() -> SimBackend:
    backend = _write()
    _rewrite_mb2(backend, PATH, [[100], [10]])
    return backend


def test_serial_global_view_rejects(overstated):
    with pytest.raises(SionFormatError, match=f"{PATH}: {OVERSTATED}"):
        serial.open(PATH, "r", backend=overstated)


def test_serial_task_view_rejects(overstated):
    with pytest.raises(SionFormatError, match=OVERSTATED):
        serial.open_rank(PATH, 0, backend=overstated)


def test_paropen_read_rejects(overstated):
    def task(comm):
        f = paropen(PATH, "r", comm, backend=overstated)
        data = f.read_all()
        f.parclose()
        return data

    with pytest.raises(ReproError, match=OVERSTATED):
        run_spmd(2, task, engine="bulk")


def test_gateway_rejects(overstated):
    gw = ReadGateway(backend=overstated, cache_bytes=1 << 16, cache_block=64)
    with pytest.raises(SionFormatError, match=OVERSTATED):
        asyncio.run(gw.read_task(PATH, 0))


def test_verify_reports_the_block(overstated):
    report = verify_multifile(PATH, backend=overstated)
    assert not report.ok
    assert any("bad metablock 2" in e and OVERSTATED in e for e in report.errors)


def test_shadow_header_shrinks_the_capacity():
    # Under shadow headers a 64-byte chunk holds 32 data bytes: 40 is over.
    backend = _write(shadow=True)
    _rewrite_mb2(backend, PATH, [[10], [40]])
    with pytest.raises(SionFormatError, match="task 1 block 0 records 40 bytes"):
        serial.open(PATH, "r", backend=backend)


def test_block_past_metablock2_rejected():
    # Every block fits its chunk, but task 0 claims a second block that
    # would sit where metablock 2 is.
    backend = _write()
    _rewrite_mb2(backend, PATH, [[10, 10], [10]])
    with pytest.raises(SionFormatError, match="task 0 block 1 ends at .* past metablock 2"):
        serial.open(PATH, "r", backend=backend)


def test_recovery_rebuilds_an_overstated_table():
    backend = _write(shadow=True)
    _rewrite_mb2(backend, PATH, [[40], [10]])
    report = recover_multifile(PATH, backend=backend)
    assert (report.files_intact, report.files_recovered) == (0, 1)
    with serial.open(PATH, "r", backend=backend) as f:
        assert [f.read_task(r) for r in range(2)] == [_payload(0), _payload(1)]


def test_replica_with_overstated_table_does_not_qualify():
    backend = _write(ntasks=4, nfiles=2, buddy=True)
    rpath = buddy_path(PATH, 1, 2)
    _rewrite_mb2(backend, rpath, [[100], [10]])
    found_path, found = qualify_replica(PATH, 1, 2, backend)
    assert found_path == rpath
    assert isinstance(found, str) and OVERSTATED in found
