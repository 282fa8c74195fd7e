"""One writer: every write handle drives one cursor, so they all agree.

``repro.sion.readwrite.WriteStream`` is the only implementation of the
write API; direct, collective, buddy and hybrid ``paropen`` handles and
the serial creator's per-task cursors are that cursor over different
sinks.  Part (i) runs one logical write program through every writer and
requires every physical file to be byte-identical across writers that
record the same flags (the serial creator records none; a buddy replica
must equal its primary), in three styles: chunk-spanning ``fwrite``,
``write`` after ``ensure_free_space``, and a ``CoalescingWriter``.  Every
writer also fails the same misuse with the same error, and the serial
creator refuses to seek backwards.  Part (ii) pins the structure that
makes (i) hold by construction.

The SPMD writers are module-level functions so the ``paropen`` rows also
run on the process engine (over real files).
"""

import hashlib
import pathlib
import random
import re

import pytest

from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend
from repro.errors import SionChunkOverflowError, SionUsageError
from repro.fs.simfs import SimFS
from repro.simmpi import run_spmd
from repro.sion import (
    CoalescingWriter,
    SionCollectiveFile,
    SionParallelFile,
    SionSerialWriter,
    TaskStream,
    WriteStream,
    paropen,
    paropen_hybrid,
    serial,
)
from repro.sion.buddy import buddy_path
from repro.sion.hybrid import thread_multifile_path
from repro.sion.mapping import physical_path
from tests.conftest import TEST_BLKSIZE

NWRITERS = 6
#: Multi-chunk, empty, single-chunk and sub-piece streams.
SIZES = (1500, 0, 700, 1300, 90, 2200)
CHUNKSIZE = 200  # rounds up to one 512-byte file-system block
CAPACITY = TEST_BLKSIZE  # a plain chunk's data bytes
PIECE = 333  # the fwrite size: crosses chunk boundaries
RECORD = 150  # the write / coalesced record size
NTHREADS = 2

SHAPES = [
    {"compress": c, "shadow": s, "nfiles": f, "mapping": m}
    for c in (False, True)
    for s in (False, True)
    for f in (1, 3)
    for m in ("blocked", "roundrobin")
]

#: The paropen writers: (row id, extra paropen options).
PAROPEN_ROWS = [
    ("direct", {}),
    ("collective[K=2]", {"collectsize": 2}),
    (f"collective[K={NWRITERS}]", {"collectsize": NWRITERS}),
    ("buddy", {"buddy": True}),
    ("buddy-collective[K=2]", {"buddy": True, "collectsize": 2}),
]


def _shape_id(shape):
    return "-".join(
        [
            "z" if shape["compress"] else "raw",
            "shadow" if shape["shadow"] else "plain",
            f"f{shape['nfiles']}",
            shape["mapping"],
        ]
    )


def _payloads():
    rng = random.Random(27)
    return [rng.randbytes(n) for n in SIZES]


def _pieces(data, k):
    return [data[i : i + k] for i in range(0, len(data), k)]


def _program(f, style, payload):
    """The logical write program of one task, through handle ``f``."""
    if style == "fwrite":
        for piece in _pieces(payload, PIECE):
            f.fwrite(piece)
    elif style == "write":
        for record in _pieces(payload, RECORD):
            f.ensure_free_space(len(record))
            f.write(record)
    else:
        with CoalescingWriter(f, buffer_size=2 * RECORD + 100) as w:
            for record in _pieces(payload, RECORD):
                w.write(record)


def write_paropen(comm, path, backend, shape, style, extra):
    """One rank of a ``paropen`` writer row."""
    f = paropen(path, "w", comm, chunksize=CHUNKSIZE, backend=backend, **shape, **extra)
    _program(f, style, _payloads()[comm.rank])
    f.parclose()


def write_hybrid(comm, path, backend, shape, style):
    """One rank of the hybrid writer: every thread writes the same program."""
    with paropen_hybrid(path, "w", comm, NTHREADS, CHUNKSIZE, backend=backend, **shape) as h:
        for t in range(NTHREADS):
            _program(h.stream(t), style, _payloads()[comm.rank])


def _write_serial(backend, path, shape, style):
    with serial.open(
        path, "w", chunksizes=[CHUNKSIZE] * NWRITERS, nfiles=shape["nfiles"],
        mapping=shape["mapping"], backend=backend,
    ) as sf:
        for rank, payload in enumerate(_payloads()):
            sf.seek(rank)
            _program(sf, style, payload)


def _digests(backend, path, nfiles, replicas=False):
    """sha256 of every physical file of the set at ``path`` (or its replicas)."""
    out = []
    for f in range(nfiles):
        fpath = buddy_path(path, f, nfiles) if replicas else physical_path(path, f)
        with backend.open(fpath, "rb") as raw:
            out.append(hashlib.sha256(raw.pread(0, backend.file_size(fpath))).hexdigest())
    return tuple(out)


def _sim_backend():
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    fs.mkdir("/s")
    return SimBackend(fs)


def _assert_one_file_set(groups):
    for buddy, by_writer in groups.items():
        assert len(set(by_writer.values())) == 1, (buddy, by_writer)


def _assert_reads_back(backend, path):
    with serial.open(path, "r", backend=backend) as sf:
        assert [sf.read_task(r) for r in range(NWRITERS)] == _payloads()


STYLES = ["fwrite", "write", "coalesce"]
CASES = [
    (shape, style)
    for shape in SHAPES
    for style in STYLES
    if not (shape["compress"] and style == "write")  # no chunk-local writes
]


# --------------------------------------------------------------------------
# (i) The conformance table.


@pytest.mark.parametrize(
    "shape,style", CASES, ids=[f"{_shape_id(s)}-{st}" for s, st in CASES]
)
def test_every_writer_writes_the_same_files(shape, style):
    backend = _sim_backend()
    nfiles = shape["nfiles"]
    # Within a shape, writers differ only in the buddy flag they record.
    groups = {False: {}, True: {}}
    for engine in ("threads", "bulk"):
        for row, extra in PAROPEN_ROWS:
            path = f"/s/{engine}-{row}.sion"
            run_spmd(NWRITERS, write_paropen, path, backend, shape, style, extra,
                     engine=engine)
            buddy = extra.get("buddy", False)
            groups[buddy][f"{engine}:{row}"] = _digests(backend, path, nfiles)
            if buddy:
                groups[buddy][f"{engine}:{row}:replica"] = _digests(
                    backend, path, nfiles, replicas=True
                )
        path = f"/s/{engine}-hybrid.sion"
        run_spmd(NWRITERS, write_hybrid, path, backend, shape, style, engine=engine)
        for t in range(NTHREADS):
            tpath = thread_multifile_path(path, t)
            groups[False][f"{engine}:hybrid[t={t}]"] = _digests(backend, tpath, nfiles)
    if not (shape["compress"] or shape["shadow"]):  # serial creation records no flags
        _write_serial(backend, "/s/serial.sion", shape, style)
        groups[False]["serial"] = _digests(backend, "/s/serial.sion", nfiles)
    _assert_one_file_set(groups)
    _assert_reads_back(backend, "/s/threads-direct.sion")
    _assert_reads_back(backend, "/s/bulk-buddy.sion")


@pytest.mark.parametrize("shape", [SHAPES[0], SHAPES[-1]], ids=_shape_id)
@pytest.mark.parametrize("row", PAROPEN_ROWS, ids=[r[0] for r in PAROPEN_ROWS])
def test_paropen_rows_on_the_process_engine(tmp_path, shape, row):
    backend = LocalBackend(blocksize_override=TEST_BLKSIZE)
    name, extra = row
    files = {}
    for engine in ("threads", "proc"):
        path = str(tmp_path / f"{engine}.sion")
        run_spmd(NWRITERS, write_paropen, path, backend, shape, "fwrite", extra,
                 engine=engine)
        files[engine] = _digests(backend, path, shape["nfiles"])
        if extra.get("buddy"):
            replica = _digests(backend, path, shape["nfiles"], replicas=True)
            assert replica == files[engine], (engine, name)
    assert files["proc"] == files["threads"], name
    _assert_reads_back(backend, str(tmp_path / "proc.sion"))


def _error_of(call):
    try:
        call()
    except SionUsageError as exc:
        return type(exc).__name__, str(exc)
    return None


def _misuse(f, close):
    """A handle's error rows: a chunk-local ``write`` too big for the
    chunk while open, then an ``fwrite`` after the close."""
    rows = [_error_of(lambda: f.write(bytes(CAPACITY + 1)))]
    f.fwrite(b"ok")
    close()
    rows.append(_error_of(lambda: f.fwrite(b"late")))
    return rows


def misuse_paropen(comm, path, backend, compress, extra):
    f = paropen(path, "w", comm, chunksize=CHUNKSIZE, backend=backend,
                compress=compress, **extra)
    return _misuse(f, f.parclose)


def misuse_hybrid(comm, path, backend, compress):
    h = paropen_hybrid(path, "w", comm, NTHREADS, CHUNKSIZE, backend=backend,
                       compress=compress)
    return _misuse(h.stream(0), h.parclose)


CLOSED = ("SionUsageError", "multifile is closed")
ERROR_ROWS = {
    False: [
        ("SionChunkOverflowError",
         f"write of {CAPACITY + 1} bytes overflows chunk (pos=0, "
         f"capacity={CAPACITY}); call ensure_free_space first"),
        CLOSED,
    ],
    True: [
        ("SionUsageError",
         "write is unavailable with transparent compression; "
         "use fwrite, which manages chunk boundaries internally"),
        CLOSED,
    ],
}


@pytest.mark.parametrize("compress", [False, True], ids=["raw", "z"])
def test_every_writer_fails_misuse_the_same_way(compress):
    backend = _sim_backend()
    rows = {}
    for engine in ("threads", "bulk"):
        for row, extra in PAROPEN_ROWS:
            out = run_spmd(NWRITERS, misuse_paropen, f"/s/{engine}-{row}.sion",
                           backend, compress, extra, engine=engine)
            rows.update({(engine, row, r): o for r, o in enumerate(out)})
        out = run_spmd(NWRITERS, misuse_hybrid, f"/s/{engine}-hybrid.sion", backend,
                       compress, engine=engine)
        rows.update({(engine, "hybrid", r): o for r, o in enumerate(out)})
    if not compress:  # the serial creator writes no compressed streams
        sf = serial.open("/s/serial.sion", "w", chunksizes=[CHUNKSIZE] * NWRITERS,
                         backend=backend)
        sf.seek(1)
        rows["serial"] = _misuse(sf, sf.close)
    assert rows == {key: ERROR_ROWS[compress] for key in rows}
    assert issubclass(SionChunkOverflowError, SionUsageError)


def test_serial_seek_moves_forward_only():
    backend = _sim_backend()
    with serial.open("/s/seek.sion", "w", chunksizes=[CHUNKSIZE] * 4,
                     backend=backend) as sf:
        sf.seek(0)
        sf.fwrite(b"abc")
        for block, pos in ((0, 0), (0, 2)):
            with pytest.raises(SionUsageError, match="cannot seek back"):
                sf.seek(0, block, pos)
        sf.seek(0, 0, 3)  # the cursor's own position is not behind it
        sf.fwrite(b"de")
        # A position counts as written only once a write reaches it.
        sf.seek(1, 0, 100)
        sf.seek(2, 0, 10)
        sf.write(b"xy")
        sf.seek(2, 1, 0)
        sf.seek(3, 0, 500)
        assert sf.ensure_free_space(100)
        sf.seek(3, 1, CAPACITY)
        sf.fwrite(b"z")
        with pytest.raises(SionUsageError, match="file is open 'w'"):
            sf.read_task(0)
    with serial.open("/s/seek.sion", "r", backend=backend) as sf:
        assert sf.get_locations().blocksizes == [[5], [0], [12], [0, 0, 1]]
        assert sf.read_task(0) == b"abcde"
        assert sf.read_task(2) == bytes(10) + b"xy"


# --------------------------------------------------------------------------
# (ii) Structure: the write API exists once.

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
WRITE_API = ("fwrite", "write", "ensure_free_space", "bytes_left_in_chunk",
             "flush_shadow", "finalize")


def _sion_sources():
    return {p: p.read_text() for p in sorted((SRC / "sion").glob("*.py"))}


@pytest.mark.parametrize(
    "name",
    ["_record_written", "_written", "_check_plain", "_NoDataAccess", "_open_write",
     "_flush_data", "_require"],
)
def test_deleted_write_paths_are_gone(name):
    pattern = re.compile(rf"\b{name}\b")
    assert [p.name for p, text in _sion_sources().items() if pattern.search(text)] == []


def test_zlib_writer_is_constructed_in_one_module():
    users = [p.name for p, text in _sion_sources().items() if "ZlibWriter(" in text]
    assert users == ["readwrite.py"]


def test_write_api_is_defined_by_the_cursor_alone():
    import repro.serve.gateway
    import repro.sion

    modules = [repro.serve.gateway] + [
        getattr(repro.sion, name)
        for name in ("collective", "hybrid", "openspec", "parallel", "readwrite", "serial")
    ]
    owners = {
        cls.__name__
        for mod in modules
        for cls in vars(mod).values()
        if isinstance(cls, type) and cls.__module__ == mod.__name__
        for name in WRITE_API
        if name in vars(cls)
    }
    # The serial creator forwards to the cursor of the task it sought.
    assert owners == {"WriteStream", "SionSerialWriter"}
    assert set(vars(SionSerialWriter)) & set(WRITE_API) == {"write", "fwrite",
                                                            "ensure_free_space"}
    assert not set(WRITE_API) & set(vars(TaskStream))
    assert issubclass(SionParallelFile, WriteStream)
    assert issubclass(SionCollectiveFile, SionParallelFile)
    added = {n for n in vars(SionCollectiveFile) if not n.startswith("__")}
    assert added == {"ccom", "collectsize", "flush_collective"}
