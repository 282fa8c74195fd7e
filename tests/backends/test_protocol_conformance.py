"""One ``RawFile`` protocol, every storage stack: equal results, equal errors.

The protocol is four positioned calls — ``scatter_write``,
``gather_read``, ``flush`` and ``close`` — plus the ``pwrite`` /
``pread`` helpers ``RawFile`` defines once on top of the first two, and
every stack the SION layer can be handed must honour it identically: the
two leaf stores (:class:`SimBackend`, :class:`LocalBackend`), the
counting wrapper and the call journal over them, a buddy
:class:`MirrorRawFile` pair (read back from both copies), the read-only
:class:`CachingRawFile` (its writes go to the plain store it wraps), and
a minimal file and backend that implement only the abstract calls, so
the protocol's own defaults (the two helpers, the size-based identity
token) are held to the same table.

Each row runs on every stack; the values must be equal everywhere.  A
row that raises must raise on every stack, with one exception type per
leaf store (the simulator raises its own ``InvalidOperationError``, the
real file system ``ValueError``/``OSError``), so wrappers never change
what the store says.

The structure tests pin the protocol's shape: four abstract calls and two
helpers defined once, one journal op per direction, no file pointer
anywhere in the storage stack, and no wrapper re-declaring the stores'
private contiguous-run hooks.
"""

from __future__ import annotations

import importlib
import pkgutil
import tracemalloc

import pytest

import repro
from repro.backends.base import Backend, RawFile, StoreFile
from repro.backends.caching import CachingRawFile
from repro.backends.instrument import CountingBackend
from repro.backends.journal import READ_OPS, WRITE_OPS, Journal
from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend
from repro.fs.cache import ChunkCache
from repro.fs.simfs import SimFS
from repro.sion.buddy import MirrorRawFile
from repro.sion.collective import FragmentRecorder, _Tape
from repro.sion.openspec import ReplayGuardedFile
from repro.simmpi import run_spmd
from tests.conftest import TEST_BLKSIZE

ABSTRACT = {"scatter_write", "gather_read", "flush", "close"}
HELPERS = {"pwrite", "pread"}
POINTER_CALLS = ("seek", "tell", "read", "write", "write_zeros", "truncate")
HOLE = 4 << 20  # a gap this large must stay (mostly) unallocated


# ---------------------------------------------------------------------------
# Stacks: how a row opens a file for writing, and every way to read it back.


class Stack:
    """One storage stack over a leaf store (``"sim"`` or ``"local"``)."""

    def __init__(self, leaf: str, backend, base: str) -> None:
        self.leaf, self.backend, self.base = leaf, backend, base

    def path(self, name: str) -> str:
        return f"{self.base}/{name}"

    def open_write(self, path: str) -> RawFile:
        return self.backend.open(path, "w+b")

    def open_reads(self, path: str) -> list:
        return [self.backend.open(path, "rb")]


class MirrorStack(Stack):
    """Writes through a :class:`MirrorRawFile`; reads both copies and the pair."""

    def open_write(self, path: str) -> RawFile:
        return MirrorRawFile(
            self.backend.open(path, "w+b"), self.backend.open(path + ".buddy", "w+b")
        )

    def open_reads(self, path: str) -> list:
        copies = [self.backend.open(p, "rb") for p in (path, path + ".buddy")]
        pair = MirrorRawFile(*[self.backend.open(p, "rb") for p in (path, path + ".buddy")])
        return [*copies, pair]


class CachingStack(Stack):
    """Writes through the plain store; reads through a :class:`CachingRawFile`."""

    def open_reads(self, path: str) -> list:
        cache = ChunkCache(1 << 20, 64)
        return [CachingRawFile(self.backend.open(path, "rb"), cache, 1, path)]


class _PortableFile(RawFile):
    """Only the four abstract calls; ``RawFile``'s own helpers do the rest."""

    def __init__(self, inner: RawFile) -> None:
        self._inner = inner

    def scatter_write(self, fragments):
        return self._inner.scatter_write(fragments)

    def gather_read(self, requests):
        return self._inner.gather_read(requests)

    def flush(self):
        self._inner.flush()

    def close(self):
        self._inner.close()


class _PortableBackend(Backend):
    """Only the abstract calls over a Sim store (the default identity token)."""

    def __init__(self, inner: Backend) -> None:
        self.inner = inner

    def open(self, path, mode):
        return _PortableFile(self.inner.open(path, mode))

    def exists(self, path):
        return self.inner.exists(path)

    def unlink(self, path):
        self.inner.unlink(path)

    def file_size(self, path):
        return self.inner.file_size(path)

    def stat_blocksize(self, path):
        return self.inner.stat_blocksize(path)

    def allocated_size(self, path):
        return self.inner.allocated_size(path)


def _sim() -> SimBackend:
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    fs.mkdir("/scratch")
    return SimBackend(fs)


def _local() -> LocalBackend:
    return LocalBackend(blocksize_override=TEST_BLKSIZE)


STACKS = {
    "sim": lambda tmp: Stack("sim", _sim(), "/scratch"),
    "local": lambda tmp: Stack("local", _local(), str(tmp)),
    "counting-sim": lambda tmp: Stack("sim", CountingBackend(_sim()), "/scratch"),
    "journal-sim": lambda tmp: Stack("sim", Journal(_sim()), "/scratch"),
    "journal-local": lambda tmp: Stack("local", Journal(_local()), str(tmp)),
    "mirror-sim": lambda tmp: MirrorStack("sim", _sim(), "/scratch"),
    "caching-sim": lambda tmp: CachingStack("sim", _sim(), "/scratch"),
    "portable-sim": lambda tmp: Stack("sim", _PortableBackend(_sim()), "/scratch"),
}


# ---------------------------------------------------------------------------
# Rows: each returns a value that must be equal on every stack.


def _read_back(stack: Stack, path: str, read) -> object:
    """``read(handle)`` on every read source of ``path``; all must agree."""
    sources = stack.open_reads(path)
    try:
        seen = [read(src) for src in sources]
    finally:
        for src in sources:
            src.close()
    assert all(v == seen[0] for v in seen), seen
    return seen[0]


def row_hole_past_eof(stack: Stack):
    """A pwrite past EOF leaves a hole that reads as zeros and costs no space."""
    path = stack.path("hole.bin")
    with stack.open_write(path) as f:
        f.pwrite(0, b"head")
        f.pwrite(HOLE, b"tail")
    got = _read_back(stack, path, lambda r: (r.pread(4, 64), r.pread(HOLE - 2, 8)))
    size = stack.backend.file_size(path)
    return got, size, stack.backend.allocated_size(path) < HOLE // 4


def row_pread_short_at_eof(stack: Stack):
    """A pread is short at EOF and empty past it."""
    path = stack.path("eof.bin")
    with stack.open_write(path) as f:
        f.pwrite(0, b"0123456789")
    return _read_back(
        stack, path, lambda r: (r.pread(0, 4), r.pread(6, 10), r.pread(10, 4), r.pread(99, 4))
    )


def row_scatter_write_lands_like_pwrites(stack: Stack):
    """Unsorted, contiguous and empty fragments land like sequential pwrites."""
    frags = [
        (40, b"TAIL"),
        (4, bytearray(b"++")),
        (0, b"HEAD"),
        (6, memoryview(b"")),
        (6, memoryview(b"--")),
        (30, b""),
    ]
    ref = bytearray(44)
    for off, data in frags:
        ref[off : off + len(data)] = bytes(data)
    path = stack.path("scatter.bin")
    with stack.open_write(path) as f:
        total = f.scatter_write(frags)
        empty = f.scatter_write([])
    content = _read_back(stack, path, lambda r: r.pread(0, 100))
    return total, empty, content == bytes(ref), stack.backend.file_size(path)


def row_gather_read_in_request_order(stack: Stack):
    """gather_read answers in request order, across runs, gaps and EOF."""
    path = stack.path("gather.bin")
    with stack.open_write(path) as f:
        f.pwrite(0, bytes(range(100)))
    requests = [(60, 5), (0, 3), (3, 3), (200, 4), (10, 0), (98, 10), (6, 2)]
    return _read_back(stack, path, lambda r: r.gather_read(requests))


def _kept_as_read(piece) -> bool:
    """A read piece a caller may keep as is: a ``bytes``, or a read-only
    view whose ``.obj`` is an immutable ``bytes``."""
    if type(piece) is memoryview:
        return piece.readonly and type(piece.obj) is bytes
    return type(piece) is bytes


def row_read_pieces_are_immutable(stack: Stack):
    """gather_read pieces are bytes or read-only views of a bytes (inside
    one write, across two, over a hole, past EOF); pread returns bytes."""
    path = stack.path("kinds.bin")
    with stack.open_write(path) as f:
        f.pwrite(0, bytes(range(64)))
        f.pwrite(64, bytearray(range(64, 128)))
        f.pwrite(200, memoryview(bytes(range(50)))[10:40])
    requests = [(8, 16), (60, 8), (70, 10), (120, 90), (205, 10), (300, 4)]

    def kinds(r):
        pieces = r.gather_read(requests)
        preads = [r.pread(off, n) for off, n in requests]
        return (
            [bytes(p) for p in pieces], all(_kept_as_read(p) for p in pieces),
            preads, all(type(p) is bytes for p in preads),
        )

    return _read_back(stack, path, kinds)


def row_gather_read_peaks_at_twice_its_bytes(stack: Stack):
    """A 4 MiB gather_read on the stack's read handle holds its piece and
    at most one more copy of it at a time: its traced peak stays within
    twice the bytes read plus 64 KiB.  (The read cache is no ``RawFile``:
    it keeps one object per block by design.)"""
    size = 4 << 20
    path = stack.path("big.bin")
    with stack.open_write(path) as f:
        f.pwrite(0, bytes(range(256)) * (size // 256))
    with stack.backend.open(path, "rb") as r:
        tracemalloc.start()
        try:
            (piece,) = r.gather_read([(0, size)])
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return len(piece), top <= 2 * size + (64 << 10)


def row_closed_handle_raises(stack: Stack):
    """Every data call on a closed handle raises."""
    path = stack.path("closed.bin")
    f = stack.open_write(path)
    f.pwrite(0, b"x")
    f.close()
    writes = [_outcome(lambda: f.pwrite(0, b"y")), _outcome(lambda: f.scatter_write([(0, b"y")]))]

    def closed_reads(r):
        r.close()
        return [_outcome(lambda: r.pread(0, 1)), _outcome(lambda: r.gather_read([(0, 1)]))]

    return writes, _read_back(stack, path, closed_reads)


def row_namespace_calls(stack: Stack):
    """exists, file_size, allocated_size, identity_token and unlink agree."""
    be, path = stack.backend, stack.path("ns.bin")
    missing = be.exists(path)
    with stack.open_write(path) as f:
        f.pwrite(0, b"x" * 1000)
        f.flush()
    token = be.identity_token(path)
    stable = be.identity_token(path) == token
    with be.open(path, "r+b") as f:
        f.pwrite(1000, b"more")
    changed = be.identity_token(path) != token
    sizes = (be.file_size(path), be.allocated_size(path) >= 0)
    be.unlink(path)
    return missing, stable, changed, sizes, be.exists(path), _outcome(lambda: be.unlink(path))


ROWS = [
    row_hole_past_eof,
    row_pread_short_at_eof,
    row_scatter_write_lands_like_pwrites,
    row_gather_read_in_request_order,
    row_read_pieces_are_immutable,
    row_gather_read_peaks_at_twice_its_bytes,
    row_closed_handle_raises,
    row_namespace_calls,
]


def _outcome(call):
    """``("ok", value)`` or ``("raises", exception type)``."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return ("raises", type(exc))


def _conforms(outcomes: dict):
    """Equal values everywhere; equal exception types per leaf store."""
    by_leaf: dict = {}
    for (name, leaf), got in outcomes.items():
        by_leaf.setdefault(leaf, []).append((name, got))
    firsts = {leaf: rows[0][1] for leaf, rows in by_leaf.items()}
    for leaf, rows in by_leaf.items():
        for name, got in rows:
            assert got == firsts[leaf], f"{name} differs from {rows[0][0]}: {got!r}"
    return list(firsts.values())


def _erase_types(value):
    """The value with exception types replaced by a marker (cross-leaf view)."""
    if isinstance(value, (list, tuple)):
        return type(value)(_erase_types(v) for v in value)
    if isinstance(value, type) and issubclass(value, BaseException):
        return "<exception>"
    return value


@pytest.mark.parametrize("row", ROWS, ids=lambda r: r.__name__[4:])
def test_every_stack_gives_equal_results(row, tmp_path):
    outcomes = {}
    for name, make in STACKS.items():
        (tmp_path / name).mkdir()
        stack = make(tmp_path / name)
        outcomes[(name, stack.leaf)] = _outcome(lambda: row(stack))
    sim, local = _conforms(outcomes)
    assert _erase_types(sim) == _erase_types(local)
    assert sim[0] == "ok", sim


# ---------------------------------------------------------------------------
# A local handle crosses the process boundary (fork and spawn).


def _pwrite_own_region(comm, handle):
    handle.pwrite(comm.rank * 8, bytes([comm.rank]) * 8)
    comm.barrier()
    return True


@pytest.mark.parametrize("name", ["local", "journal-local"])
def test_local_handle_travels_to_proc_ranks(name, tmp_path):
    stack = STACKS[name](tmp_path)
    path = stack.path("shared.bin")
    handle = stack.open_write(path)
    assert run_spmd(3, _pwrite_own_region, handle, engine="proc") == [True] * 3
    assert _read_back(stack, path, lambda r: r.pread(0, 64)) == b"".join(
        bytes([r]) * 8 for r in range(3)
    )
    handle.close()


# ---------------------------------------------------------------------------
# Structure: the protocol's shape.


def _repro_rawfile_classes() -> list[type]:
    """Every RawFile subclass defined under ``repro``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            try:
                importlib.import_module(info.name)
            except ImportError:  # optional plotting deps
                continue
    found, todo = [], [RawFile]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro."):
                found.append(sub)
    return found


def test_rawfile_is_four_abstract_calls_and_two_helpers():
    assert RawFile.__abstractmethods__ == ABSTRACT
    assert {n for n in dir(RawFile) if not n.startswith("_")} == ABSTRACT | HELPERS


def test_pwrite_and_pread_are_defined_once():
    """Only ``RawFile`` defines the helpers; the read cache borrows them,
    and the write cursor's sinks have neither."""
    for cls in [*_repro_rawfile_classes(), ReplayGuardedFile, _Tape, FragmentRecorder]:
        assert not HELPERS & set(vars(cls)), cls
    assert CachingRawFile.pread is RawFile.pread


def test_the_journal_has_one_write_op_and_one_read_op():
    assert WRITE_OPS == ("scatter_write",)
    assert READ_OPS == ("gather_read",)


def test_no_rawfile_in_repro_keeps_a_file_pointer():
    classes = _repro_rawfile_classes()
    assert {c.__name__ for c in classes} >= {
        "LocalRawFile", "SimRawFile", "JournalRawFile", "MirrorRawFile",
    }
    for cls in classes:
        assert not set(POINTER_CALLS) & set(vars(cls)), cls


def test_only_leaf_stores_have_contiguous_run_hooks():
    assert StoreFile.__abstractmethods__ == {"_pwritev", "_preadv", "flush", "close"}
    leaves = {c for c in _repro_rawfile_classes() if issubclass(c, StoreFile)}
    assert {c.__name__ for c in leaves} == {"StoreFile", "LocalRawFile", "SimRawFile"}
    for cls in [*_repro_rawfile_classes(), CachingRawFile]:
        assert not {"pwritev", "preadv"} & set(vars(cls)), cls
        if cls not in leaves:
            assert not {"_pwritev", "_preadv"} & set(vars(cls)), cls


def test_caching_rawfile_is_a_read_only_source():
    assert not issubclass(CachingRawFile, RawFile)
    assert {n for n in vars(CachingRawFile) if not n.startswith("_")} == {
        "pread", "gather_read", "close",
    }


def test_sim_file_handle_has_no_position():
    fs = SimFS()
    handle = fs.open("/f", "w+b")
    assert not hasattr(handle, "_pos")
    assert not any(hasattr(handle, name) for name in POINTER_CALLS)
    handle.close()
