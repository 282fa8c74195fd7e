"""Every reader rejects a damaged set alike: the damaged-set table.

Set A has four tasks in two physical files (blocked: ranks 0-1 in file
0, ranks 2-3 in file 1; a shape that damages a custom mapping table
writes it with ``MAPPINGS``).  Each damage shape breaks one physical file;
every strict reader surface — ``paropen "r"`` matched, partitioned and
collector-prefetched, ``serial.open``, ``open_rank`` of a task in the
damaged file and a gateway session — must raise the same
:class:`~repro.errors.SionFormatError` with the same message, which
names the damaged file.  Under SPMD that error is the
:class:`~repro.errors.SpmdWorkerError`'s first failure.  ``sionverify``
reports the same finding; ``recover_multifile`` refuses a set without
replicas naming the file, and restores a set with buddy replicas to its
written bytes.  Every row runs on ``SimBackend`` and ``LocalBackend``;
the ``paropen`` rows also run on the process engine (their SPMD body is
module-level, so they pickle under ``spawn`` too).

Part (ii) pins the structure that makes the table hold: one loader
decodes metablock 1, and the copies it replaced are gone.
"""

from __future__ import annotations

import ast
import asyncio
import pathlib
import re
import struct
import time
import tracemalloc

import pytest

from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend
from repro.errors import SionFormatError, SionMetadataLostError, SpmdWorkerError
from repro.fs.simfs import SimFS
from repro.serve import ReadGateway
from repro.simmpi import run_spmd
from repro.sion import (
    FLAG_SHADOW,
    Metablock1,
    Metablock2,
    open_rank,
    paropen,
    recover_multifile,
    serial,
)
from repro.sion.loader import load_set
from repro.sion.mapping import physical_path
from repro.utils.verify import verify_multifile
from tests.conftest import TEST_BLKSIZE

NTASKS = 4
CHUNK = 300  # one 512-byte chunk per task


def _payload(rank: int, tag: bytes = b"A") -> bytes:
    return tag * (100 + 37 * rank) + bytes([rank])


# ---------------------------------------------------------------------------
# The set and its damage shapes.


def _write(backend, path, mapping="blocked", tag=b"A", **options):
    def task(comm):
        f = paropen(path, "w", comm, chunksize=CHUNK, nfiles=2, mapping=mapping,
                    backend=backend, **options)
        f.fwrite(_payload(comm.rank, tag))
        f.parclose()

    run_spmd(NTASKS, task, engine="bulk")


def _file_bytes(backend, path) -> bytes:
    with backend.open(path, "rb") as f:
        return f.pread(0, backend.file_size(path))


def _replace(backend, path, data: bytes) -> None:
    with backend.open(path, "wb") as f:
        f.pwrite(0, data)


def _rewrite_mb1(backend, path, **fields) -> None:
    with backend.open(path, "r+b") as f:
        mb1 = Metablock1.decode_from(f)
        for name, value in fields.items():
            setattr(mb1, name, value)
        f.pwrite(0, mb1.encode())


def _missing(backend, path, fpath):
    backend.unlink(fpath)


def _foreign(backend, path, fpath):
    # Set B: the same geometry, round-robin, other payloads; its file 1
    # holds ranks 1 and 3.  Copied over A's file 1, a reader trusting file
    # 0's mapping would serve B's ranks as A's ranks 2 and 3.
    other = path + ".b"
    _write(backend, other, mapping="roundrobin", tag=b"B")
    _replace(backend, fpath, _file_bytes(backend, physical_path(other, 1)))


def _fsblksize(backend, path, fpath):
    _rewrite_mb1(backend, fpath, fsblksize=2 * TEST_BLKSIZE)


def _flags(backend, path, fpath):
    _rewrite_mb1(backend, fpath, flags=FLAG_SHADOW)


def _ntasks_global(backend, path, fpath):
    _rewrite_mb1(backend, fpath, ntasks_global=NTASKS + 1)


def _overstated(backend, path, fpath):
    with backend.open(fpath, "r+b") as f:
        mb1 = Metablock1.decode_from(f)
        f.pwrite(mb1.metablock2_offset, Metablock2([[100], [1000]]).encode())


def _truncated_mb2(backend, path, fpath):
    data = _file_bytes(backend, fpath)
    _replace(backend, fpath, data[:-6])


def _hostile_counts(backend, path, fpath):
    # 120 bytes whose metablock 1 claims 2^31 - 1 tasks (ntasks_local and
    # ntasks_global): 16 GiB of global ranks that the file does not hold.
    head = bytearray(_file_bytes(backend, fpath)[:120])
    struct.pack_into("<I", head, struct.calcsize("<8sIIQ"), 2**31 - 1)
    struct.pack_into("<I", head, struct.calcsize("<8sIIQIII"), 2**31 - 1)
    _replace(backend, fpath, bytes(head))


def _hostile_ntasks_global(backend, path, fpath):
    # File 0's ntasks_global with its top byte flipped: 4278190084 tasks,
    # a blocked mapping of 32 GiB per array if anything built it.
    data = bytearray(_file_bytes(backend, fpath))
    data[struct.calcsize("<8sIIQIII") + 3] ^= 0xFF
    _replace(backend, fpath, bytes(data))


def _swapped_local_ranks(backend, path, fpath):
    # Written with mapping [0, 1, 0, 1]: file 0 holds ranks 0 and 2 at
    # local ranks 0 and 1.  Swapped, a reader trusting the table would
    # serve rank 2's chunk as rank 0's.
    with backend.open(fpath, "rb") as f:
        table = Metablock1.decode_from(f).mapping_table  # (file, lrank) pairs, flat
    table[1], table[5] = table[5], table[1]
    _rewrite_mb1(backend, fpath, mapping_table=table)


#: shape -> (damage, damaged file, what the finding says after the path).
SHAPES = {
    "missing": (_missing, 1, "missing: no such file"),
    "missing-file-0": (_missing, 0, "missing: no such file"),
    "foreign": (_foreign, 1, "disagrees with file 0: stored global ranks disagree"),
    "fsblksize": (_fsblksize, 1, "disagrees with file 0: fsblksize is 1024, expected 512"),
    "flags": (_flags, 1, "disagrees with file 0: flags is 2, expected 0"),
    "ntasks_global": (_ntasks_global, 1, "disagrees with file 0: ntasks_global is 5"),
    "overstated": (_overstated, 1, "bad metablock 2: .* task 1 block 0 records 1000 bytes"),
    "truncated-mb2": (_truncated_mb2, 1, "bad metablock 2: truncated multifile"),
    "hostile-counts": (
        _hostile_counts, 1, "bad metablock 1: truncated multifile while reading globalranks"
    ),
    "hostile-ntasks-global": (
        _hostile_ntasks_global, 0,
        "bad metablock 1: invalid task mapping: 4278190084 tasks in 2 files put "
        "2139095042 in file 0, which holds 2",
    ),
    "swapped-local-ranks": (
        _swapped_local_ranks, 0,
        "bad metablock 1: invalid task mapping: task 0 has local rank 1 in file 0, expected 0",
    ),
}

#: The mapping set A is written with, where a shape needs another than blocked.
MAPPINGS = {"swapped-local-ranks": [0, 1, 0, 1]}


@pytest.fixture(params=["sim", "local"])
def store(request, tmp_path):
    """``(backend, directory)`` on either leaf store."""
    if request.param == "local":
        return LocalBackend(blocksize_override=TEST_BLKSIZE), str(tmp_path)
    return SimBackend(SimFS(blocksize_override=TEST_BLKSIZE)), "/d"


def _damaged(backend, base, shape, **options):
    """Write set A, damage it by ``shape``; returns its path and the damaged file."""
    damage, filenum, _ = SHAPES[shape]
    path = f"{base}/a.sion"
    _write(backend, path, mapping=MAPPINGS.get(shape, "blocked"), **options)
    fpath = physical_path(path, filenum)
    damage(backend, path, fpath)
    return path, fpath


# ---------------------------------------------------------------------------
# The reader surfaces.


def read_all(comm, path, backend, partitioned, collectsize):
    """One ``paropen`` reader: its whole slice."""
    f = paropen(path, "r", comm, backend=backend, partitioned=partitioned,
                collectsize=collectsize)
    data = f.read_all()
    f.parclose()
    return data


#: The paropen plans: (row id, reader count, partitioned, collectsize).
PAROPEN_ROWS = [
    ("matched", NTASKS, False, None),
    ("partitioned", 3, True, None),
    ("prefetch", 3, True, 2),
]


def _paropen(backend, path, row, engine):
    _, m, partitioned, k = row
    return run_spmd(m, read_all, path, backend, partitioned, k, engine=engine)


def _serial(backend, path):
    with serial.open(path, "r", backend=backend) as sf:
        return [sf.read_task(r) for r in range(NTASKS)]


def _open_rank(backend, path):
    with open_rank(path, 2, backend=backend) as rf:  # rank 2 lives in file 1
        return rf.read_all()


def _gateway(backend, path):
    async def session():
        sid = await gw.open_session(path, rank=2)
        return await gw.read_all(sid)

    gw = ReadGateway(backend=backend)
    try:
        return asyncio.run(session())
    finally:
        gw.close()


#: Every strict reader surface, called as ``surface(backend, path)``.
STRICT = {
    **{
        f"paropen-{row[0]}": lambda backend, path, row=row: _paropen(backend, path, row, "bulk")
        for row in PAROPEN_ROWS
    },
    "serial.open": _serial,
    "open_rank": _open_rank,
    "gateway": _gateway,
}


def _strict_error(call) -> BaseException:
    """What a strict surface raised: an SPMD run's first failure."""
    with pytest.raises(Exception) as info:
        call()
    exc = info.value
    if isinstance(exc, SpmdWorkerError):
        exc = exc.failures[min(exc.failures)]
    return exc


def _assert_rejects(exc, fpath, shape):
    assert type(exc) is SionFormatError, repr(exc)
    assert re.match(rf"{re.escape(fpath)}: {SHAPES[shape][2]}", str(exc)), str(exc)


# ---------------------------------------------------------------------------
# (i) The table.


@pytest.mark.parametrize("surface", STRICT)
@pytest.mark.parametrize("shape", SHAPES)
def test_strict_surface_rejects(store, shape, surface):
    backend, base = store
    path, fpath = _damaged(backend, base, shape)
    _assert_rejects(_strict_error(lambda: STRICT[surface](backend, path)), fpath, shape)


@pytest.mark.parametrize("shape", SHAPES)
def test_every_reader_rejects_alike_and_sionverify_reports_it(store, shape):
    backend, base = store
    path, _ = _damaged(backend, base, shape)
    messages = {str(_strict_error(lambda s=s: s(backend, path))) for s in STRICT.values()}
    assert len(messages) == 1, messages
    assert messages <= set(verify_multifile(path, backend=backend).errors)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("row", PAROPEN_ROWS, ids=[r[0] for r in PAROPEN_ROWS])
def test_paropen_rows_on_the_process_engine(tmp_path, shape, row):
    backend = LocalBackend(blocksize_override=TEST_BLKSIZE)
    path, fpath = _damaged(backend, str(tmp_path), shape)
    _assert_rejects(_strict_error(lambda: _paropen(backend, path, row, "proc")), fpath, shape)


def test_hostile_count_fields_load_in_bounded_memory(store):
    """The decoder reads a claimed length in 16 MiB pieces and stops at the
    first short one: the load's peak stays under two pieces."""
    backend, base = store
    path, fpath = _damaged(backend, base, "hostile-counts")
    tracemalloc.start()
    try:
        load = load_set(backend, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    load.close()
    assert load.findings[0].startswith(f"{fpath}: bad metablock 1: truncated")
    assert peak < 2 * (16 << 20)


def _hostile_nfiles(backend, path):
    # File 0 claims 2^20 files of two tasks each: self-consistent, so the
    # count checks pass, but a load sized by the claim probes 2^20 files.
    _rewrite_mb1(backend, path, nfiles=2**20, ntasks_global=2**21)


@pytest.mark.parametrize("surface", [*STRICT, "sionverify", "recover_multifile"])
def test_hostile_nfiles_costs_what_is_on_disk(store, surface):
    """A load stops at the first missing file: file 1 disagrees, file 2 is
    missing, and no surface probes the other 2^20 - 3 files."""
    backend, base = store
    path = f"{base}/a.sion"
    _write(backend, path)
    _hostile_nfiles(backend, path)
    file1 = re.escape(physical_path(path, 1))
    t0 = time.perf_counter()
    if surface == "sionverify":
        errors = verify_multifile(path, backend=backend).errors
        assert re.match(rf"{file1}: disagrees with file 0: nfiles is 2, expected 1048576",
                        errors[0])
        assert errors[1:] == [
            f"{physical_path(path, 2)}: missing: no such file; the load stops here: "
            "files 3..1048575 are not probed"
        ]
    elif surface == "recover_multifile":
        with pytest.raises(SionMetadataLostError, match=file1):
            recover_multifile(path, backend=backend)
    else:
        exc = _strict_error(lambda: STRICT[surface](backend, path))
        assert type(exc) is SionFormatError, repr(exc)
        assert re.match(rf"{file1}: disagrees with file 0: nfiles is 2", str(exc)), str(exc)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("shape", SHAPES)
def test_recovery_without_replicas_names_the_file(store, shape):
    backend, base = store
    path, fpath = _damaged(backend, base, shape)
    with pytest.raises(SionMetadataLostError, match=re.escape(fpath)) as info:
        recover_multifile(path, backend=backend)
    assert type(info.value) is SionMetadataLostError


@pytest.mark.parametrize("shape", SHAPES)
def test_recovery_restores_every_shape_from_its_replica(store, shape):
    backend, base = store
    path, _ = _damaged(backend, base, shape, buddy=True)
    report = recover_multifile(path, backend=backend)
    assert (report.files_rebuilt_from_buddy, report.files_intact) == (1, 1), report.details
    assert _serial(backend, path) == [_payload(r) for r in range(NTASKS)]
    assert verify_multifile(path, backend=backend).ok


# ---------------------------------------------------------------------------
# (ii) Structure: one loader.

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def test_metablock1_is_decoded_by_the_loader_alone():
    callers = {
        p.relative_to(SRC).as_posix()
        for p in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr == "decode_from"
        and isinstance(node.value, ast.Name)
        and node.value.id == "Metablock1"
    }
    # bench/scenarios.py holds the metablock micro-bench.
    assert callers == {"sion/loader.py", "bench/scenarios.py"}


@pytest.mark.parametrize(
    "name",
    [
        "load_set_geometry",
        "load_file_metadata",
        "load_metablocks",
        "load_read_plan",
        "_bootstrap_geometry",
        "_verify_one",
    ],
)
def test_replaced_loaders_are_gone(name):
    pattern = re.compile(rf"\b{name}\b")
    assert [p.name for p in SRC.rglob("*.py") if pattern.search(p.read_text())] == []


def test_verify_leaves_the_file_0_agreement_to_the_loader():
    tree = ast.parse((SRC / "utils" / "verify.py").read_text())
    compared = {
        operand.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for operand in [node.left, *node.comparators]
        if isinstance(operand, ast.Attribute)
    }
    assert not compared & {"filenum", "nfiles", "ntasks_global", "fsblksize", "flags",
                           "globalranks"}
