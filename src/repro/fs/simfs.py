"""Functional in-memory file system with sparse files and op counts.

:class:`SimFS` gives the SION layer a real (if simulated) place to put
bytes: hierarchical directories, POSIX-ish open modes, positioned
vectored ``preadv``/``pwritev``, and *sparse* storage —
extents of zeros occupy no memory, so a 1 TB virtual write is cheap.
Each write (each vectored run) is kept as one piece of an immutable
``bytes``: the caller's, as ``(bytes, offset, length)``, when the run is
one view of a ``bytes``, else one exact-size copy.  No piece ever
changes, so a read inside one piece hands out a read-only view of it.
A ``bytes`` stays alive while a piece or a read's view points into it.
Every operation is counted in :attr:`SimFS.op_counts` (metadata ops by
kind, data by bytes) and priced nowhere here: the figures price the counts
of a real ``paropen`` → ``parclose``
(:func:`repro.workloads.filecreate.sion_open_time`).
"""

from __future__ import annotations

import posixpath
import threading
from array import array
from bisect import bisect_left, bisect_right
import itertools
from dataclasses import dataclass
from functools import lru_cache

from repro.buffers import as_view, offset_in
from repro.errors import (
    BackendUsageError,
    FileExistsSimError,
    FileNotFoundSimError,
    InvalidOperationError,
    NotADirectorySimError,
)

_DEFAULT_BLKSIZE = 2 * (1 << 20)

#: Process-wide mutation clock backing :attr:`SparseFile.version`.
_version_clock = itertools.count(1)


class SparseFile:
    """Byte store holding only materialized pieces; holes read as zeros.

    Every write stores the bytes it brings as one *piece* of an
    immutable ``bytes``.  The pieces live in four flat columns:
    ``_starts`` (file offset), ``_offs`` (where the piece begins inside
    its object) and ``_lens`` (its length) are int64 arrays, and
    ``_objs`` lists the objects, every one an exact ``bytes``.  A run
    that is one view of a ``bytes`` is shared, not copied: its object is
    that ``bytes``, at the view's offset in it
    (:func:`~repro.buffers.offset_in`), so a shared piece costs a
    reference and three numbers, not a view object.  Any other run is
    copied once into an exact-size ``bytes`` at offset 0.  A write
    replaces the pieces it overlaps and keeps what sticks out of the
    first and the last of them as the same ``bytes`` at a moved offset,
    so only the new run is ever copied; growing one buffer per extent
    instead (``+=`` on every touching write) builds a large file by
    thousands of reallocs, and the heap they leave behind, not the
    stored bytes, sets the process's peak memory.  Since no object
    changes, :meth:`read` hands out a read-only view of a piece.
    """

    __slots__ = ("size", "version", "allocated_bytes", "_starts", "_offs", "_lens", "_objs")

    def __init__(self) -> None:
        self.size = 0
        # Monotonic change token: every mutation takes the next tick of a
        # process-wide clock, so (any two states of) any two files never
        # share a version — the stat-based revalidation signal caches use.
        self.version = next(_version_clock)
        #: Bytes actually materialized (the paper's 'physical' footprint):
        #: a running count, since ``SimFS.stat`` reads it on every call.
        self.allocated_bytes = 0
        self._starts = array("q")
        self._offs = array("q")
        self._lens = array("q")
        #: Exact ``bytes``: the caller's when shared, the store's own
        #: copy (offset 0, whole length) otherwise.
        self._objs: list[bytes] = []

    # -- queries -------------------------------------------------------------

    def extents(self) -> list[tuple[int, int]]:
        """Materialized ``(offset, length)`` runs: ascending, disjoint, and
        never touching — pieces that abut are reported as one run."""
        out: list[tuple[int, int]] = []
        end = -1
        for s, n in zip(self._starts, self._lens):
            if s == end:
                lo, m = out[-1]
                out[-1] = (lo, m + n)
            else:
                out.append((s, n))
            end = s + n
        return out

    # -- mutation ------------------------------------------------------------

    def writev(self, offset: int, views) -> int:
        """Overlay ``views`` back to back at ``offset`` as exactly one new
        piece; the head and tail of the pieces it overlaps stay where they
        are in their objects."""
        if offset < 0:
            raise BackendUsageError(f"negative offset: {offset}")
        views = [as_view(v) for v in views]
        n = sum(v.nbytes for v in views)
        if n == 0:
            return 0
        self.version = next(_version_clock)
        starts, offs, lens, objs = self._starts, self._offs, self._lens, self._objs
        lo, hi = offset, offset + n
        first, last = self._overlap_range(lo, hi)
        new = [(lo, *_piece(views), n)]  # (start, object, offset, length)
        freed = 0
        if first < last:
            s = starts[first]
            if s < lo:  # keep the head of the first piece
                new.insert(0, (s, objs[first], offs[first], lo - s))
            s, end = starts[last - 1], starts[last - 1] + lens[last - 1]
            if end > hi:  # ... and the tail of the last
                new.append((hi, objs[last - 1], offs[last - 1] + hi - s, end - hi))
            freed = sum(lens[first:last])
        new_starts, new_objs, new_offs, new_lens = zip(*new)
        starts[first:last] = array("q", new_starts)
        offs[first:last] = array("q", new_offs)
        lens[first:last] = array("q", new_lens)
        objs[first:last] = new_objs
        self.allocated_bytes += sum(new_lens) - freed
        self.size = max(self.size, hi)
        return n

    def read(self, offset: int, n: int) -> bytes | memoryview:
        """Read up to ``n`` bytes at ``offset``; holes come back as zeros.

        A range inside one piece comes back as a read-only view of that
        piece's ``bytes``, which no later write changes; any other range
        is assembled in one copy from views of the pieces.
        """
        if offset < 0 or n < 0:
            raise BackendUsageError("offset and n must be non-negative")
        n = max(0, min(n, self.size - offset))
        if n == 0:
            return b""
        lo, hi = offset, offset + n
        first, last = self._overlap_range(lo, hi)
        starts, offs, lens, objs = self._starts, self._offs, self._lens, self._objs
        if last == first + 1 and starts[first] <= lo and hi <= starts[first] + lens[first]:
            o = offs[first] - starts[first]
            return memoryview(objs[first])[o + lo : o + hi]
        parts: list = []
        pos = lo
        for i in range(first, last):
            s = starts[i]
            if s > pos:
                parts.append(bytes(s - pos))
            e = min(s + lens[i], hi)
            o = offs[i] - s
            parts.append(memoryview(objs[i])[o + max(s, lo) : o + e])
            pos = e
        if pos < hi:
            parts.append(bytes(hi - pos))
        return b"".join(parts)

    # -- internals -------------------------------------------------------------

    def _overlap_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Indices [first, last) of pieces intersecting [lo, hi)."""
        first = bisect_right(self._starts, lo) - 1
        if first >= 0:
            if self._starts[first] + self._lens[first] <= lo:
                first += 1
        else:
            first = 0
        last = bisect_left(self._starts, hi, lo=first)
        return first, last


def _piece(views: list[memoryview]) -> tuple[bytes, int]:
    """``(object, offset)`` one run is stored as: the caller's ``bytes``
    and where the run starts in it when the run is one contiguous view of
    a ``bytes``, else one exact-size copy at offset 0."""
    if len(views) == 1:
        v = views[0]
        if type(v.obj) is bytes:
            return v.obj, offset_in(v)
    return b"".join(views), 0


@dataclass
class SimStat:
    """Subset of ``os.stat_result`` the SION layer needs."""

    st_size: int
    st_blksize: int
    allocated_bytes: int
    is_dir: bool
    version: int = 0


class _Inode:
    __slots__ = ("kind", "entries", "data")

    def __init__(self, kind: str) -> None:
        self.kind = kind  # "dir" | "file"
        self.entries: dict[str, _Inode] = {} if kind == "dir" else None  # type: ignore
        self.data: SparseFile | None = SparseFile() if kind == "file" else None


class SimFileHandle:
    """Open-file handle: positioned calls only, no file pointer."""

    def __init__(self, fs: "SimFS", inode: _Inode, path: str, mode: str) -> None:
        self._fs = fs
        self._inode: _Inode | None = inode
        self.path = path
        self.mode = mode
        self._closed = False
        self.readable = "r" in mode or "+" in mode
        self.writable = "w" in mode or "+" in mode

    # -- data -------------------------------------------------------------------

    def pwritev(self, offset: int, views) -> int:
        """Vectored positional write: views land back to back at ``offset``.

        The run is stored as one piece, not one per view (collective
        mode hands over thousands of small fragments per call); the
        whole call is accounted as one data operation of the summed size.
        """
        self._check_open()
        self._check_writable()
        with self._fs._lock:
            total = self._data.writev(offset, views)
            self._fs._count("write_bytes", total)
        return total

    def preadv(self, offset: int, sizes) -> list[bytes | memoryview]:
        """Vectored positional read of consecutive ``sizes`` at ``offset``;
        pieces may be read-only views (:meth:`SparseFile.read`)."""
        self._check_open()
        if not self.readable:
            raise InvalidOperationError(f"{self.path}: not open for reading")
        with self._fs._lock:
            out: list[bytes | memoryview] = []
            pos = offset
            for size in sizes:
                if size < 0:
                    raise BackendUsageError(f"negative read size: {size}")
                out.append(self._data.read(pos, size))
                pos += size
            self._fs._count("read_bytes", sum(len(p) for p in out))
        return out

    def flush(self) -> None:
        """No-op (everything is already 'durable' in memory)."""
        self._check_open()

    def close(self) -> None:
        """Close the handle; further operations raise.

        A closed handle also lets go of its inode, so one that a caller
        still holds (returned from a rank body, captured in a traceback)
        does not pin the file's extents.
        """
        if not self._closed:
            self._closed = True
            self._inode = None
            self._fs._count("close")

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SimFileHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals ----------------------------------------------------------------

    @property
    def _data(self) -> SparseFile:
        inode = self._inode
        if inode is None:  # closed by another thread after _check_open
            raise InvalidOperationError(f"{self.path}: handle is closed")
        return inode.data

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidOperationError(f"{self.path}: handle is closed")

    def _check_writable(self) -> None:
        if not self.writable:
            raise InvalidOperationError(f"{self.path}: not open for writing")


class SimFS:
    """In-memory hierarchical file system that counts every op."""

    def __init__(self, blocksize_override: int | None = None) -> None:
        if blocksize_override is not None and blocksize_override < 1:
            raise InvalidOperationError("blocksize_override must be positive")
        self.blocksize_override = blocksize_override
        self._root = _Inode("dir")
        self.op_counts: dict[str, int] = {}
        # SPMD workloads drive many rank threads (or bulk-engine workers)
        # into one SimFS concurrently; piece-list surgery and the op
        # accounting are multi-step and must not interleave.  Reentrant:
        # data ops account inside the same critical section.
        self._lock = threading.RLock()

    # -- namespace -----------------------------------------------------------------

    def mkdir(self, path: str, parents: bool = False) -> None:
        """Create a directory (optionally with intermediate ones)."""
        parts = self._split(path)
        with self._lock:
            node = self._root
            for i, part in enumerate(parts):
                if node.kind != "dir":
                    raise NotADirectorySimError("/" + "/".join(parts[:i]))
                child = node.entries.get(part)
                last = i == len(parts) - 1
                if child is None:
                    if last or parents:
                        child = _Inode("dir")
                        node.entries[part] = child
                        self._count("mkdir")
                    else:
                        raise FileNotFoundSimError("/" + "/".join(parts[: i + 1]))
                elif last:
                    raise FileExistsSimError(path)
                node = child

    def open(self, path: str, mode: str = "rb") -> SimFileHandle:
        """Open a file; 'w' creates/truncates, 'r' requires existence.

        Supported modes: ``rb``, ``wb``, ``r+b``, ``w+b``.
        """
        if "b" not in mode:
            raise InvalidOperationError("SimFS is binary-only; use a 'b' mode")
        if mode[0] not in "rw":
            raise InvalidOperationError(f"unsupported SimFS mode {mode!r}")
        parts = self._split(path)
        if not parts:
            raise InvalidOperationError("cannot open the root directory")
        # Namespace check-then-insert (and the truncating data swap) must
        # be atomic against concurrent rank threads: without the lock two
        # creating opens could each install their own inode and one
        # handle's writes would land in an orphan.
        with self._lock:
            parent = self._walk_dir(parts[:-1], path)
            name = parts[-1]
            inode = parent.entries.get(name)
            if inode is None:
                if not mode.startswith("w"):
                    raise FileNotFoundSimError(path)
                inode = _Inode("file")
                parent.entries[name] = inode
                self._count("create")
            else:
                if inode.kind != "file":
                    raise InvalidOperationError(f"{path}: is a directory")
                self._count("open")
                if mode.startswith("w"):
                    inode.data = SparseFile()
        return SimFileHandle(self, inode, self._norm(path), mode)

    def exists(self, path: str) -> bool:
        """True if ``path`` names a file or directory."""
        try:
            self._lookup(path)
            return True
        except (FileNotFoundSimError, NotADirectorySimError):
            return False

    def stat(self, path: str) -> SimStat:
        """Stat; ``st_blksize`` is ``blocksize_override`` or 2 MiB.

        Under the store lock, lookup included: a write updates ``size``,
        ``allocated_bytes`` and ``version`` in separate steps, and a stat
        between them would pair a new ``version`` (the identity token
        caches revalidate by) with an old size.
        """
        blk = self.blocksize_override or _DEFAULT_BLKSIZE
        with self._lock:
            inode = self._lookup(path)
            self._count("stat")
            if inode.kind == "dir":
                return SimStat(0, blk, 0, True)
            data = inode.data
            return SimStat(data.size, blk, data.allocated_bytes, False, data.version)

    def extents_of(self, path: str) -> tuple[int, list[tuple[int, int]]]:
        """``(size, materialized extents)`` of a file, without accounting.

        The extents are ascending, disjoint, non-touching ``(offset,
        length)`` runs, however many writes built them; holes between
        them read as zeros.  Together with the bytes under each run
        this determines the file content exactly, which is what content
        fingerprints (e.g. the scale suite's multifile hash pin) are built
        from — a free-of-charge introspection, so no op accounting happens.
        """
        with self._lock:
            inode = self._lookup(path)
            if inode.kind != "file":
                raise InvalidOperationError(f"{path}: is a directory")
            return inode.data.size, inode.data.extents()

    def unlink(self, path: str) -> None:
        """Remove a file."""
        parts = self._split(path)
        with self._lock:
            parent = self._walk_dir(parts[:-1], path)
            inode = parent.entries.get(parts[-1])
            if inode is None:
                raise FileNotFoundSimError(path)
            if inode.kind != "file":
                raise InvalidOperationError(f"{path}: is a directory; cannot unlink")
            del parent.entries[parts[-1]]
            self._count("unlink")

    def listdir(self, path: str = "/") -> list[str]:
        """Sorted entry names of a directory."""
        inode = self._lookup(path)
        if inode.kind != "dir":
            raise NotADirectorySimError(path)
        return sorted(inode.entries)

    # -- accounting -----------------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        """Add ``n`` to ``op_counts[key]``: one op, or a data op's bytes."""
        with self._lock:
            self.op_counts[key] = self.op_counts.get(key, 0) + n

    # -- path helpers ------------------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=4096)
    def _norm(path: str) -> str:
        # Memoized: SPMD workloads normalize the same handful of path
        # strings hundreds of thousands of times.
        norm = posixpath.normpath("/" + path.strip())
        # POSIX preserves a leading double slash; collapse it for our use.
        return "/" + norm.lstrip("/")

    def _split(self, path: str) -> list[str]:
        norm = self._norm(path)
        if norm == "/":
            return []
        return norm.lstrip("/").split("/")

    def _walk_dir(self, parts: list[str], full_path: str) -> _Inode:
        node = self._root
        for i, part in enumerate(parts):
            if node.kind != "dir":
                raise NotADirectorySimError("/" + "/".join(parts[:i]))
            nxt = node.entries.get(part)
            if nxt is None:
                raise FileNotFoundSimError("/" + "/".join(parts[: i + 1]))
            node = nxt
        if node.kind != "dir":
            raise NotADirectorySimError(full_path)
        return node

    def _lookup(self, path: str) -> _Inode:
        parts = self._split(path)
        if not parts:
            return self._root
        parent = self._walk_dir(parts[:-1], path)
        inode = parent.entries.get(parts[-1])
        if inode is None:
            raise FileNotFoundSimError(path)
        return inode
