"""Buddy-replica checkpointing: mirror writes, survive whole-file loss.

``paropen(..., buddy=True)`` mirrors every chunk write of physical file
``f`` into a replica hosted on the *partner* stem
(``physical_path(base, (f+1) % nfiles) + ".buddy"``), so losing one stem
entirely never takes both copies.  These tests pin the replication
contract (replica byte-identical to its primary by construction), the
recovery contract (a lost or torn primary rebuilt byte-identically from
its buddy, on both the threads and bulk engines), and the tooling
surface (``assess_loss`` / ``sionverify --inject lose-file=K``).
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend
from repro.errors import SionMetadataLostError, SionUsageError
from repro.fs.simfs import SimFS
from repro.sion import (
    BUDDY_SUFFIX,
    buddy_path,
    paropen,
    recover_multifile,
    serial,
)
from repro.sion.format import Metablock1, Metablock2
from repro.sion.mapping import physical_path
from repro.simmpi import run_spmd
from repro.utils.cli import main_verify
from repro.utils.verify import assess_loss, verify_multifile
from tests.conftest import TEST_BLKSIZE

ENGINES = ("threads", "bulk")


def _payload(rank: int, n: int) -> bytes:
    return bytes((rank * 17 + i) % 256 for i in range(n))


def _backend():
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    fs.mkdir("/scratch")
    return SimBackend(fs)


def _write_buddy(be, path, ntasks, *, nfiles=2, size=700, engine="threads",
                 collectsize=None, shadow=True):
    def task(comm):
        f = paropen(path, "w", comm, chunksize=256, nfiles=nfiles,
                    shadow=shadow, buddy=True, collectsize=collectsize,
                    backend=be)
        f.fwrite(_payload(comm.rank, size))
        f.parclose()

    run_spmd(ntasks, task, engine=engine)


def _file_bytes(be, path: str) -> bytes:
    f = be.open(path, "rb")
    try:
        return f.pread(0, be.file_size(path))
    finally:
        f.close()


def _hashes(be, base: str, nfiles: int) -> dict[int, str]:
    return {
        k: hashlib.sha256(_file_bytes(be, physical_path(base, k))).hexdigest()
        for k in range(nfiles)
    }


def _check_readback(be, path, ntasks, size=700):
    with serial.open(path, "r", backend=be) as sf:
        for r in range(ntasks):
            assert sf.read_task(r) == _payload(r, size)


# -- placement and replication ----------------------------------------------


def test_buddy_path_lives_on_partner_stem():
    assert buddy_path("/s/out.sion", 0, 2) == (
        physical_path("/s/out.sion", 1) + BUDDY_SUFFIX
    )
    # The last file's replica wraps around to stem 0 (geometry bootstrap).
    assert buddy_path("/s/out.sion", 1, 2) == "/s/out.sion" + BUDDY_SUFFIX
    # nfiles=1 degenerates to a sibling of the only file.
    assert buddy_path("/s/out.sion", 0, 1) == "/s/out.sion" + BUDDY_SUFFIX


def test_replicas_byte_identical_after_write():
    be = _backend()
    path = "/scratch/b.sion"
    _write_buddy(be, path, 6, nfiles=2)
    for k in range(2):
        primary = _file_bytes(be, physical_path(path, k))
        replica = _file_bytes(be, buddy_path(path, k, 2))
        assert primary == replica


def test_mirror_close_closes_primary_when_replica_close_raises(tmp_path):
    """A failing replica close must not leak the primary's descriptor."""
    from repro.sion.buddy import MirrorRawFile

    class FailingClose:
        def close(self):
            raise OSError("replica close failed")

    primary = LocalBackend().open(str(tmp_path / "p.bin"), "w+b")
    mirror = MirrorRawFile(primary, FailingClose())
    with pytest.raises(OSError, match="replica close failed"):
        mirror.close()
    assert primary._f.closed


def test_buddy_rejected_in_read_mode():
    be = _backend()
    path = "/scratch/r.sion"
    _write_buddy(be, path, 2, nfiles=1)

    def task(comm):
        paropen(path, "r", comm, buddy=True, backend=be)

    with pytest.raises(Exception) as exc_info:
        run_spmd(2, task)
    failures = getattr(exc_info.value, "failures", {})
    assert any(isinstance(e, SionUsageError) for e in failures.values()) or (
        isinstance(exc_info.value, SionUsageError)
    )


# -- whole-file loss recovery ------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_lose_one_file_recover_byte_identical(engine):
    be = _backend()
    path = "/scratch/l.sion"
    _write_buddy(be, path, 6, nfiles=2, engine=engine)
    before = _hashes(be, path, 2)
    be.unlink(physical_path(path, 1))

    report = recover_multifile(path, backend=be)
    assert report.files_rebuilt_from_buddy == 1
    assert report.files_recovered == 1
    assert report.bytes_recovered == 3 * 700  # logical bytes of 3 tasks

    assert _hashes(be, path, 2) == before
    assert verify_multifile(path, backend=be, deep=True).ok
    _check_readback(be, path, 6)


def test_lose_file_zero_bootstraps_geometry_from_buddy():
    """File 0 holds the authoritative geometry; its loss must still boot."""
    be = _backend()
    path = "/scratch/z.sion"
    _write_buddy(be, path, 4, nfiles=2)
    before = _hashes(be, path, 2)
    be.unlink(path)  # physical file 0 IS the base path

    report = recover_multifile(path, backend=be)
    assert report.files_rebuilt_from_buddy == 1
    assert _hashes(be, path, 2) == before
    _check_readback(be, path, 4)


def test_nfiles_one_degenerate_buddy():
    be = _backend()
    path = "/scratch/one.sion"
    _write_buddy(be, path, 3, nfiles=1)
    before = _hashes(be, path, 1)
    be.unlink(path)
    report = recover_multifile(path, backend=be)
    assert report.files_rebuilt_from_buddy == 1
    assert _hashes(be, path, 1) == before
    _check_readback(be, path, 3)


def test_collective_buddy_mirrors_and_recovers():
    be = _backend()
    path = "/scratch/cb.sion"
    _write_buddy(be, path, 4, nfiles=2, collectsize=2)
    for k in range(2):
        assert _file_bytes(be, physical_path(path, k)) == _file_bytes(
            be, buddy_path(path, k, 2)
        )
    before = _hashes(be, path, 2)
    be.unlink(physical_path(path, 1))
    recover_multifile(path, backend=be)
    assert _hashes(be, path, 2) == before
    _check_readback(be, path, 4)


def test_torn_metablock2_prefers_buddy_over_shadow_rebuild():
    """A torn primary with an intact replica restores byte-identically.

    The shadow rebuild would lose unflushed tails; the buddy copy cannot
    — the decision table prefers it whenever the replica fully decodes.
    """
    from repro.backends import FaultInjectingBackend, FaultPlan

    inner = _backend()
    path = "/scratch/torn.sion"
    be = FaultInjectingBackend(inner, FaultPlan().drop_metablock2(path))
    _write_buddy(be, path, 4, nfiles=2)

    report = recover_multifile(path, backend=inner)
    assert report.files_rebuilt_from_buddy == 1
    # Byte-identical to the replica, hence to the unfaulted primary.
    assert _file_bytes(inner, path) == _file_bytes(inner, buddy_path(path, 0, 2))
    assert verify_multifile(path, backend=inner, deep=True).ok
    _check_readback(inner, path, 4)


# -- tooling: assess_loss / sionverify --inject ------------------------------


def test_assess_loss_reports_survivable_and_not():
    be = _backend()
    path = "/scratch/al.sion"
    _write_buddy(be, path, 4, nfiles=2)
    assert assess_loss(path, 0, backend=be).ok
    assert assess_loss(path, 1, backend=be).ok
    assert not assess_loss(path, 2, backend=be).ok  # out of range

    be.unlink(buddy_path(path, 1, 2))
    assert not assess_loss(path, 1, backend=be).ok  # replica gone
    assert assess_loss(path, 0, backend=be).ok      # other file unaffected


def test_assess_loss_refuses_the_replica_recovery_refuses():
    # A replica whose metablock 2 decodes but lists one task where its
    # metablock 1 has two: recovery will not restore from it, so the
    # what-if must not call the loss survivable either.
    be = _backend()
    path = "/scratch/short.sion"
    _write_buddy(be, path, 4, nfiles=2)
    raw = be.open(buddy_path(path, 1, 2), "r+b")
    try:
        mb1 = Metablock1.decode_from(raw)
        raw.pwrite(mb1.metablock2_offset, Metablock2([[1]]).encode())
    finally:
        raw.close()

    report = assess_loss(path, 1, backend=be)
    assert not report.ok
    assert "metablock 2 lists 1 task(s)" in report.errors[0]
    be.unlink(physical_path(path, 1))
    with pytest.raises(SionMetadataLostError):
        recover_multifile(path, backend=be)


def test_assess_loss_requires_buddy_flag():
    be = _backend()
    path = "/scratch/nb.sion"

    def task(comm):
        f = paropen(path, "w", comm, chunksize=256, backend=be)
        f.fwrite(b"x" * 100)
        f.parclose()

    run_spmd(2, task)
    assert not assess_loss(path, 0, backend=be).ok


def test_sionverify_inject_cli(tmp_path):
    be = LocalBackend(blocksize_override=TEST_BLKSIZE)
    path = str(tmp_path / "cli.sion")
    _write_buddy(be, path, 4, nfiles=2)

    assert main_verify(["--inject", "lose-file=1", path]) == 0
    assert main_verify(["--inject", "bogus", path]) == 1
    be.unlink(buddy_path(path, 1, 2))
    assert main_verify(["--inject", "lose-file=1", path]) == 2


# -- what the restore moves --------------------------------------------------


def _store_bytes_moved(be, fn) -> int:
    before = dict(be.fs.op_counts)
    fn()
    return sum(
        n - before.get(key, 0)
        for key, n in be.fs.op_counts.items() if key.endswith("_bytes")
    )


@pytest.mark.parametrize("copy_chunk", [1 << 20, 100])
def test_restore_moves_only_described_ranges(monkeypatch, copy_chunk):
    """Small payloads in 4 KiB chunks: the restore reads and writes the
    metablocks, shadow headers and written bytes — not the padding — and
    the rebuilt file keeps the replica's size, content and holes.  A tiny
    ``_COPY_CHUNK`` cuts every range into pieces and changes nothing."""
    from repro.sion import recovery

    monkeypatch.setattr(recovery, "_COPY_CHUNK", copy_chunk)
    fs = SimFS(blocksize_override=4096)
    fs.mkdir("/scratch")
    be = SimBackend(fs)
    path = "/scratch/sparse.sion"

    def task(comm):
        f = paropen(path, "w", comm, chunksize=4096, nfiles=1, shadow=True,
                    buddy=True, backend=be)
        f.fwrite(_payload(comm.rank, 37 * comm.rank))  # rank 0 writes nothing
        f.parclose()

    run_spmd(8, task)
    before = _file_bytes(be, path)
    allocated = be.allocated_size(path)
    be.unlink(path)

    moved = _store_bytes_moved(be, lambda: recover_multifile(path, backend=be))

    assert _file_bytes(be, path) == before
    assert be.allocated_size(path) == allocated < len(before)
    described = sum(37 * r for r in range(8)) + 8 * 32  # data + shadow headers
    # Read once and written once, plus the metablocks (decoded, then copied).
    assert 2 * described < moved < 2 * described + 2048 < len(before)


@pytest.mark.parametrize("tall_neighbour", [True, False])
def test_restore_keeps_headers_of_opened_but_unused_chunks(tall_neighbour):
    """A task that moves on to a fresh chunk and then closes leaves a
    zero-byte shadow header there that metablock 2 does not list (trailing
    empty blocks are trimmed) — inside the block range when another task
    is that tall, past metablock 2 otherwise.  The restore carries both."""
    be = _backend()
    path = "/scratch/trail.sion"

    def task(comm):
        f = paropen(path, "w", comm, chunksize=256, nfiles=1, shadow=True,
                    buddy=True, backend=be)
        f.fwrite(_payload(comm.rank, 100))
        if comm.rank == 3:
            assert f.ensure_free_space(400)  # opens block 1, never writes it
        if comm.rank == 1 and tall_neighbour:
            f.fwrite(_payload(comm.rank, 1000))
        f.parclose()

    run_spmd(4, task)
    before = _file_bytes(be, path)
    be.unlink(path)
    assert recover_multifile(path, backend=be).files_rebuilt_from_buddy == 1
    assert _file_bytes(be, path) == before
    assert verify_multifile(path, backend=be, deep=True).ok


# -- the resilience property -------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    ntasks=st.integers(min_value=2, max_value=6),
    nfiles=st.integers(min_value=1, max_value=3),
    engine=st.sampled_from(ENGINES),
    collectsize=st.sampled_from([None, 1, 2]),
    size=st.integers(min_value=1, max_value=900),
)
def test_any_single_file_loss_recovers_byte_identically(
    data, ntasks, nfiles, engine, collectsize, size
):
    """∀ plans killing ≤1 physical file under buddy mode: recovery is exact.

    For every geometry (engine × nfiles × collectsize × payload size) and
    every choice of victim file, deleting that file and recovering yields
    a physical set byte-identical to the unfaulted write.
    """
    nfiles = min(nfiles, ntasks)
    lost = data.draw(st.integers(min_value=0, max_value=nfiles - 1))
    be = _backend()
    path = "/scratch/prop.sion"
    _write_buddy(be, path, ntasks, nfiles=nfiles, size=size,
                 engine=engine, collectsize=collectsize)
    before = _hashes(be, path, nfiles)

    be.unlink(physical_path(path, lost))
    report = recover_multifile(path, backend=be)

    assert report.files_rebuilt_from_buddy == 1
    assert _hashes(be, path, nfiles) == before
    _check_readback(be, path, ntasks, size=size)
