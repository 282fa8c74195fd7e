"""Functional in-memory file store with sparse files and op counts.

:class:`SimFS` gives the SION layer a real (if simulated) place to put
bytes: a flat map from normalized path to file — no directories, since
the multifile's namespace cost is priced by the metadata model, not
here — with POSIX-ish open modes, positioned vectored writes and reads
through the store's own :class:`~repro.backends.base.StoreFile` handle,
and *sparse* storage —
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

from repro.backends.base import StoreFile
from repro.buffers import as_view, offset_in
from repro.errors import BackendUsageError, FileNotFoundSimError, InvalidOperationError

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
    version: int = 0


class SimFileHandle(StoreFile):
    """An open file of the store: the leaf :class:`StoreFile` itself.

    Each contiguous run of a ``scatter_write`` / ``gather_read`` is one
    :meth:`_pwritev` / :meth:`_preadv` here, so one run costs one counted
    data operation.  Positioned calls only, no file pointer.
    """

    def __init__(self, fs: "SimFS", data: SparseFile, path: str, mode: str) -> None:
        self._fs = fs
        #: The open file; ``None`` once closed.
        self._data: SparseFile | None = data
        self.path = path
        self.readable = "r" in mode or "+" in mode
        self.writable = "w" in mode or "+" in mode

    def _pwritev(self, offset: int, views) -> int:
        """Vectored positional write: views land back to back at ``offset``.

        The run is stored as one piece, not one per view (collective
        mode hands over thousands of small fragments per call); the
        whole call is accounted as one data operation of the summed size.
        """
        with self._fs._lock:
            total = self._checked(self.writable, "writing").writev(offset, views)
            self._fs._count("write_bytes", total)
        return total

    def _preadv(self, offset: int, sizes) -> list[bytes | memoryview]:
        """Vectored positional read of consecutive ``sizes`` at ``offset``;
        pieces may be read-only views (:meth:`SparseFile.read`)."""
        with self._fs._lock:
            data = self._checked(self.readable, "reading")
            out: list[bytes | memoryview] = []
            pos = offset
            for size in sizes:
                if size < 0:
                    raise BackendUsageError(f"negative read size: {size}")
                out.append(data.read(pos, size))
                pos += size
            self._fs._count("read_bytes", sum(len(p) for p in out))
        return out

    def flush(self) -> None:
        """No-op (everything is already 'durable' in memory)."""
        self._checked()

    def close(self) -> None:
        """Close the handle; further operations raise.

        A closed handle also lets go of its file, so one that a caller
        still holds (returned from a rank body, captured in a traceback)
        does not pin the file's extents.
        """
        with self._fs._lock:
            if self._data is not None:
                self._data = None
                self._fs._count("close")

    def _checked(self, allowed: bool = True, use: str = "") -> SparseFile:
        """The open file, if this handle is open (and open for ``use``)."""
        data = self._data
        if data is None:
            raise InvalidOperationError(f"{self.path}: handle is closed")
        if not allowed:
            raise InvalidOperationError(f"{self.path}: not open for {use}")
        return data


class SimFS:
    """In-memory flat file store that counts every op: a map from
    normalized path to :class:`SparseFile`."""

    def __init__(self, blocksize_override: int | None = None) -> None:
        if blocksize_override is not None and blocksize_override < 1:
            raise InvalidOperationError("blocksize_override must be positive")
        self.blocksize_override = blocksize_override
        self._files: dict[str, SparseFile] = {}
        self.op_counts: dict[str, int] = {}
        # SPMD workloads drive many rank threads (or bulk-engine workers)
        # into one SimFS concurrently; piece-list surgery and the op
        # accounting are multi-step and must not interleave.  Reentrant:
        # data ops account inside the same critical section.
        self._lock = threading.RLock()

    def open(self, path: str, mode: str = "rb") -> SimFileHandle:
        """Open a file; 'w' creates/truncates, 'r' requires existence.

        Supported modes: ``rb``, ``wb``, ``r+b``, ``w+b``.
        """
        if "b" not in mode:
            raise InvalidOperationError("SimFS is binary-only; use a 'b' mode")
        if mode[0] not in "rw":
            raise InvalidOperationError(f"unsupported SimFS mode {mode!r}")
        key = self._norm(path)
        # Check-then-insert (and the truncating swap) must be atomic
        # against concurrent rank threads: without the lock two creating
        # opens could each install their own file and one handle's writes
        # would land in an orphan.
        with self._lock:
            data = self._files.get(key)
            if data is None and mode[0] == "r":
                raise FileNotFoundSimError(path)
            self._count("create" if data is None else "open")
            if mode[0] == "w":
                data = self._files[key] = SparseFile()
        return SimFileHandle(self, data, key, mode)

    def exists(self, path: str) -> bool:
        """True if ``path`` names a file."""
        return self._norm(path) in self._files

    def stat(self, path: str) -> SimStat:
        """Stat; ``st_blksize`` is :meth:`blocksize`'s.

        Under the store lock, lookup included: a write updates ``size``,
        ``allocated_bytes`` and ``version`` in separate steps, and a stat
        between them would pair a new ``version`` (the identity token
        caches revalidate by) with an old size.
        """
        with self._lock:
            data = self._file(path)
            return SimStat(data.size, self.blocksize(), data.allocated_bytes, data.version)

    def blocksize(self) -> int:
        """``st_blksize`` of every path, existing or not —
        ``blocksize_override`` or 2 MiB; counted as one ``stat``."""
        self._count("stat")
        return self.blocksize_override or _DEFAULT_BLKSIZE

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
            data = self._file(path)
            return data.size, data.extents()

    def unlink(self, path: str) -> None:
        """Remove a file."""
        with self._lock:
            if self._files.pop(self._norm(path), None) is None:
                raise FileNotFoundSimError(path)
            self._count("unlink")

    def _file(self, path: str) -> SparseFile:
        data = self._files.get(self._norm(path))
        if data is None:
            raise FileNotFoundSimError(path)
        return data

    def _count(self, key: str, n: int = 1) -> None:
        """Add ``n`` to ``op_counts[key]``: one op, or a data op's bytes."""
        with self._lock:
            self.op_counts[key] = self.op_counts.get(key, 0) + n

    @staticmethod
    @lru_cache(maxsize=4096)
    def _norm(path: str) -> str:
        # Memoized: SPMD workloads normalize the same handful of path
        # strings hundreds of thousands of times.
        norm = posixpath.normpath("/" + path.strip())
        # POSIX preserves a leading double slash; collapse it for our use.
        return "/" + norm.lstrip("/")
