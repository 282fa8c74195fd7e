"""One reader: every read surface drives one cursor, so they all agree.

``repro.sion.readwrite.PartitionStream`` is the only implementation of
the read API; ``paropen(..., "r")`` in all four plans (matched or
partitioned, direct or collector-prefetched), ``open_rank``, the serial
global view and the read gateway's sessions are built from it.  Part (i)
reads one table of writer shapes through every surface and requires the
same bytes per writer stream, the same ``fread(k)`` piece sequence and
``feof()`` after draining — and, with one physical file torn short, the
same short read with ``feof()`` False.  Part (ii) pins the structure that
makes (i) hold by construction.

The SPMD reader is a module-level function so the ``paropen`` rows also
run on the process engine (over real files).
"""

import pathlib
import random
import re

import pytest

from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend, SimRawFile
from repro.fs.simfs import SimFS
from repro.serve.gateway import GatewaySession, ReadGateway
from repro.simmpi import run_spmd
from repro.sion import (
    ChunkLayout,
    Metablock1,
    PartitionStream,
    SionReadFile,
    open_rank,
    paropen,
    serial,
)
from repro.sion.mapping import ReadPartition, TaskMapping, physical_path
from tests.conftest import TEST_BLKSIZE

NWRITERS = 6
#: Multi-chunk, empty, single-chunk and sub-piece streams.
SIZES = (1500, 0, 700, 1300, 90, 2200)
CHUNKSIZE = 200  # rounds up to one 512-byte file-system block
PIECE = 333  # the fread(k) size: crosses chunk and stream boundaries

SHAPES = [
    {"compress": c, "shadow": s, "nfiles": f, "mapping": m}
    for c in (False, True)
    for s in (False, True)
    for f in (1, 3)
    for m in ("blocked", "roundrobin")
]

#: The paropen plans: (row id, reader count, partitioned, collectsize).
PAROPEN_ROWS = [
    ("matched", NWRITERS, False, None),
    ("matched-collective", NWRITERS, False, 2),
    *[
        (f"{kind}[m={m}]", m, True, k)
        for kind, k in (("partitioned", None), ("prefetch", 2))
        for m in (1, 2, NWRITERS, NWRITERS + 3)
    ],
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
    rng = random.Random(25)
    return [rng.randbytes(n) for n in SIZES]


def _pieces(data, k):
    return [data[i : i + k] for i in range(0, len(data), k)]


def _drain(f, k):
    """The paper's Listing 2 loop with ``fread(k)``: pieces, then ``feof``.

    ``k=None`` drains the slice with one ``read_all`` instead.
    """
    if k is None:
        data = f.read_all()
        return [data] if data else [], f.feof()
    pieces = []
    while not f.feof():
        piece = f.fread(k)
        if not piece:
            break
        pieces.append(piece)
    return pieces, f.feof()


def _write(backend, path, shape):
    payloads = _payloads()

    def task(comm):
        f = paropen(path, "w", comm, chunksize=CHUNKSIZE, backend=backend, **shape)
        f.fwrite(payloads[comm.rank])
        f.parclose()

    run_spmd(NWRITERS, task)


def drain_paropen(comm, path, backend, partitioned, collectsize, k):
    """One reader of a ``paropen`` row: its pieces and ``feof``."""
    f = paropen(
        path, "r", comm, backend=backend, partitioned=partitioned,
        collectsize=collectsize,
    )
    assert isinstance(f, SionReadFile)
    out = _drain(f, k)
    f.parclose()
    return out


def _paropen_surface(backend, path, nreaders, partitioned, collectsize, engine, k=PIECE):
    out = run_spmd(
        nreaders, drain_paropen, path, backend, partitioned, collectsize, k,
        engine=engine,
    )
    part = ReadPartition.balanced(NWRITERS, nreaders)
    return [(tuple(part.writers_of(r)), *out[r]) for r in range(nreaders)]


def _open_rank_surface(backend, path, k=PIECE):
    rows = []
    for w in range(NWRITERS):
        with open_rank(path, w, backend=backend) as rf:
            rows.append(((w,), *_drain(rf, k)))
    return rows


def _serial_surface(backend, path):
    rows = []
    with serial.open(path, "r", backend=backend) as sf:
        for w in range(NWRITERS):
            data = sf.read_task(w)
            rows.append(((w,), [data] if data else [], sf.feof()))
    return rows


def _gateway_surface(backend, path, nreaders, k=PIECE):
    gw = ReadGateway(backend=backend)
    try:
        container = gw.open_container(path)
        part = ReadPartition.balanced(NWRITERS, nreaders)
        rows = []
        for r in range(nreaders):
            session = GatewaySession(r, container, part.writers_of(r))
            rows.append((tuple(part.writers_of(r)), *_drain(session, k)))
            session.close()
        return rows
    finally:
        gw.close()


def _engine_free_surfaces(backend, path, k=PIECE):
    return {
        "open_rank": _open_rank_surface(backend, path, k),
        "serial-read_task": _serial_surface(backend, path),
        "gateway[m=6]": _gateway_surface(backend, path, NWRITERS, k),
        "gateway[m=2]": _gateway_surface(backend, path, 2, k),
    }


def _assert_conforms(surface, rows, expected, whole=False):
    for writers, pieces, eof in rows:
        want = b"".join(expected[w] for w in writers)
        assert b"".join(pieces) == want, (surface, writers)
        if not whole:
            assert pieces == _pieces(want, PIECE), (surface, writers)
        assert eof, (surface, writers)


def _sim_backend():
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    fs.mkdir("/s")
    return SimBackend(fs)


# --------------------------------------------------------------------------
# (i) The conformance table.


@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
def test_every_surface_reads_the_same_streams(shape):
    backend = _sim_backend()
    _write(backend, "/s/c.sion", shape)
    expected = _payloads()
    for engine in ("threads", "bulk"):
        for row, m, partitioned, k in PAROPEN_ROWS:
            rows = _paropen_surface(backend, "/s/c.sion", m, partitioned, k, engine)
            _assert_conforms(f"{engine}:{row}", rows, expected)
    for surface, rows in _engine_free_surfaces(backend, "/s/c.sion").items():
        _assert_conforms(surface, rows, expected, whole=surface.startswith("serial"))


@pytest.mark.parametrize("shape", [SHAPES[0], SHAPES[-1]], ids=_shape_id)
@pytest.mark.parametrize("row", PAROPEN_ROWS, ids=[r[0] for r in PAROPEN_ROWS])
def test_paropen_rows_on_the_process_engine(tmp_path, shape, row):
    backend = LocalBackend(blocksize_override=TEST_BLKSIZE)
    path = str(tmp_path / "c.sion")
    _write(backend, path, shape)
    _, m, partitioned, k = row
    rows = _paropen_surface(backend, path, m, partitioned, k, "proc")
    _assert_conforms(f"proc:{row[0]}", rows, _payloads())


def read_in_with_block(comm, path, backend):
    """One reader whose handle a ``with`` block closes."""
    with paropen(path, "r", comm, backend=backend) as f:
        data = f.read_all()
    return data, f.closed


@pytest.mark.parametrize("engine", ["threads", "bulk"])
def test_a_with_block_closes_the_read_handle(engine):
    backend = _sim_backend()
    _write(backend, "/s/w.sion", SHAPES[-1])
    out = run_spmd(NWRITERS, read_in_with_block, "/s/w.sion", backend, engine=engine)
    assert out == [(p, True) for p in _payloads()]


class _TornFile(SimRawFile):
    """A handle whose reads of ``[cut, mb2)`` come back missing.

    Both metablocks stay intact while the chunk data from ``cut`` up to
    metablock 2 is gone — the file's data region is truncated under
    metadata that still claims it.
    """

    def __init__(self, handle, cut: int, mb2: int) -> None:
        super().__init__(handle)
        self._cut, self._mb2 = cut, mb2

    def pread(self, offset, n):
        if offset >= self._mb2:
            return super().pread(offset, n)
        return super().pread(offset, max(0, min(n, self._cut - offset)))

    def gather_read(self, requests):
        return [self.pread(offset, n) for offset, n in requests]


class _TornBackend(SimBackend):
    """The same store, with the data of one physical file torn at ``cut``."""

    def __init__(self, fs: SimFS, path: str, cut: int, mb2: int) -> None:
        super().__init__(fs)
        self._path, self._cut, self._mb2 = path, cut, mb2

    def open(self, path, mode):
        if path != self._path:
            return super().open(path, mode)
        return _TornFile(self.fs.open(path, mode), self._cut, self._mb2)


def _tear(backend, path, shape):
    """Tear the file of writer 3 ten bytes into its second chunk."""
    tmap = TaskMapping.create(NWRITERS, shape["nfiles"], shape["mapping"])
    fpath = physical_path(path, tmap.file_of(3))
    with backend.open(fpath, "rb") as raw:
        mb1 = Metablock1.decode_from(raw)
    lrank = mb1.globalranks.index(3)
    header = 32 if shape["shadow"] else 0
    cut = ChunkLayout.from_metablock1(mb1).chunk_start(lrank, 1) + header + 10
    return _TornBackend(backend.fs, fpath, cut, mb1.metablock2_offset)


@pytest.mark.parametrize("shape", [SHAPES[0], SHAPES[7], SHAPES[10], SHAPES[-1]], ids=_shape_id)
def test_a_torn_file_reads_short_on_every_surface(shape):
    backend = _sim_backend()
    _write(backend, "/s/t.sion", shape)
    torn = _tear(backend, "/s/t.sion", shape)
    expected = _payloads()
    # What each writer stream still holds, through the task-local view.
    held = {}
    for (w,), pieces, eof in _open_rank_surface(torn, "/s/t.sion"):
        held[w] = b"".join(pieces)
        assert expected[w].startswith(held[w])
        assert eof == (held[w] == expected[w]), w
    assert held[3] != expected[3]  # the torn stream reads short

    def check(surface, rows):
        for writers, pieces, eof in rows:
            want, short = b"", False
            for w in writers:  # a slice stops at its first short stream
                want += held[w]
                if held[w] != expected[w]:
                    short = True
                    break
            assert b"".join(pieces) == want, (surface, writers)
            assert eof == (not short), (surface, writers)

    for piece in (PIECE, None):  # fread(k) loops, then one read_all
        for engine in ("threads", "bulk"):
            for row, m, partitioned, k in PAROPEN_ROWS:
                rows = _paropen_surface(torn, "/s/t.sion", m, partitioned, k, engine, piece)
                check(f"{engine}:{row}", rows)
        for surface, rows in _engine_free_surfaces(torn, "/s/t.sion", piece).items():
            check(surface, rows)


@pytest.mark.parametrize("size", range(65504, 65515))
def test_compressed_exact_length_read_reaches_eof(size):
    """An ``fread`` of exactly a compressed stream's length leaves ``feof()``
    True on every surface, even when the zlib trailer was not yet pulled."""
    backend = SimBackend(SimFS(blocksize_override=4096))
    data = random.Random(1).randbytes(size)

    def write(comm):
        f = paropen("/z.sion", "w", comm, chunksize=1 << 20, compress=True, backend=backend)
        f.fwrite(data)
        f.parclose()

    run_spmd(1, write)

    def exact(f):
        return f.fread(size) == data and f.feof()

    def spmd(partitioned):
        def body(comm):
            f = paropen("/z.sion", "r", comm, backend=backend, partitioned=partitioned)
            out = exact(f)
            f.parclose()
            return out

        return run_spmd(1, body)[0]

    gw = ReadGateway(backend=backend)
    session = GatewaySession(1, gw.open_container("/z.sion"), [0])
    with open_rank("/z.sion", 0, backend=backend) as rf:
        assert (spmd(False), spmd(True), exact(rf), exact(session)) == (True,) * 4
    gw.close()


# --------------------------------------------------------------------------
# (ii) Structure: the read API exists once.

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
READ_PACKAGES = [SRC / "sion", SRC / "serve"]


def _sources():
    return {p: p.read_text() for pkg in READ_PACKAGES for p in sorted(pkg.glob("*.py"))}


@pytest.mark.parametrize(
    "name",
    [
        "SionPartitionedReadFile",
        "SionRankFile",
        "open_collective_read",
        "_execute_matched_read",
        "_open_partitioned_prefetch",
        "_pump",
        "_zpump",
        "_zcur",
        "_zread",
    ],
)
def test_deleted_read_paths_are_gone(name):
    pattern = re.compile(rf"\b{name}\b")
    assert [p.name for p, text in _sources().items() if pattern.search(text)] == []


def test_zlib_reader_is_constructed_in_one_module():
    users = [p.name for p, text in _sources().items() if "ZlibReader(" in text]
    assert users == ["readwrite.py"]


def test_read_api_is_defined_by_the_cursor_alone():
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
        for name in ("feof", "fread", "read_all", "bytes_avail_in_chunk")
        if name in vars(cls)
    }
    # TaskStream is the single-stream primitive the cursor is made of; the
    # serial global view forwards to the cursor under its seek position,
    # and ReadGateway's are the async client calls on a session.
    assert owners == {"PartitionStream", "TaskStream", "SionSerialFile", "ReadGateway"}
    assert issubclass(SionReadFile, PartitionStream)
    assert issubclass(GatewaySession, PartitionStream)


# --------------------------------------------------------------------------
# (iii) Chunk-local reads on collector-prefetched handles.

#: ``paropen`` plans whose handles serve from collector-prefetched bytes,
#: beside their direct twins: (row id, reader count, partitioned, collectsize).
CHUNK_LOCAL_ROWS = [
    ("matched", NWRITERS, False, None),
    ("matched-prefetch", NWRITERS, False, 2),
    ("partitioned[m=4]", 4, True, None),
    ("partitioned-prefetch[m=4]", 4, True, 2),
]


def drain_chunks(comm, path, backend, partitioned, collectsize):
    """Listing 2 with the chunk-local calls: ``bytes_avail_in_chunk``, then
    a ``read`` of exactly that many bytes, until ``feof``."""
    f = paropen(
        path, "r", comm, backend=backend, partitioned=partitioned,
        collectsize=collectsize,
    )
    pieces = []
    while not f.feof():
        avail = f.bytes_avail_in_chunk()
        piece = f.read(avail)
        assert len(piece) == avail > 0
        pieces.append(piece)
    tail = (f.bytes_avail_in_chunk(), f.read(PIECE))
    f.parclose()
    return pieces, tail


@pytest.mark.parametrize("engine", ["threads", "bulk"])
@pytest.mark.parametrize("shape", [SHAPES[0], SHAPES[7]], ids=_shape_id)
def test_chunk_local_reads_agree_on_prefetched_handles(shape, engine):
    backend = _sim_backend()
    _write(backend, "/s/k.sion", shape)
    expected = _payloads()
    # One piece per recorded block, as the task-local view reads them.
    chunks = {}
    for w in range(NWRITERS):
        with open_rank("/s/k.sion", w, backend=backend) as rf:
            chunks[w] = []
            while not rf.feof():
                chunks[w].append(rf.read(rf.bytes_avail_in_chunk()))
        assert b"".join(chunks[w]) == expected[w]
    for row, m, partitioned, k in CHUNK_LOCAL_ROWS:
        out = run_spmd(
            m, drain_chunks, "/s/k.sion", backend, partitioned, k, engine=engine
        )
        part = ReadPartition.balanced(NWRITERS, m)
        for r, (pieces, tail) in enumerate(out):
            want = [c for w in part.writers_of(r) for c in chunks[w]]
            assert pieces == want, (row, r)
            assert tail == (0, b""), (row, r)
