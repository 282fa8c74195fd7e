"""Functional in-memory file system with sparse files and a virtual clock.

:class:`SimFS` gives the SION layer a real (if simulated) place to put
bytes: hierarchical directories, POSIX-ish open modes, positioned
``pread``/``pwrite`` (plus their vectored forms), and *sparse* storage —
extents of zeros occupy no memory, so a 1 TB virtual write is cheap.
Each write (each vectored run) is kept as one exact-size piece that is
never grown, so the store's footprint is its bytes, not its allocator's
reallocation history.
Every operation advances a virtual clock using the machine profile's
metadata costs and single-stream bandwidth, which lets functional tests
assert timing properties (e.g. "creating one multifile is cheaper
than creating N files") without the full discrete-event machinery.

The massively parallel experiments do *not* route every byte through this
class; they use the flow/queue models directly (see :mod:`repro.workloads`).
"""

from __future__ import annotations

import posixpath
import threading
from bisect import bisect_left, bisect_right
import itertools
from dataclasses import dataclass
from functools import lru_cache

from repro.buffers import as_view
from repro.errors import (
    BackendUsageError,
    FileExistsSimError,
    FileNotFoundSimError,
    InvalidOperationError,
    NotADirectorySimError,
)
from repro.fs.systems import SystemProfile

_DEFAULT_BLKSIZE = 2 * (1 << 20)

#: Process-wide mutation clock backing :attr:`SparseFile.version`.
_version_clock = itertools.count(1)


class SparseFile:
    """Byte store holding only materialized pieces; holes read as zeros.

    Every write stores the bytes it brings in one exact-size buffer of
    its own (a *piece*); no buffer the store holds is ever grown.  A
    write that lands inside one piece is spliced into it in place; any
    other write replaces the pieces it overlaps and keeps what sticks
    out of the first and the last of them as fresh, exact-size copies.
    Growing one buffer per extent instead (``+=`` on every touching
    write) builds a large file by thousands of reallocs, and the heap
    they leave behind, not the stored bytes, sets the process's peak
    memory.
    """

    __slots__ = ("size", "version", "allocated_bytes", "_starts", "_bufs")

    def __init__(self) -> None:
        self.size = 0
        # Monotonic change token: every mutation takes the next tick of a
        # process-wide clock, so (any two states of) any two files never
        # share a version — the stat-based revalidation signal caches use.
        self.version = next(_version_clock)
        #: Bytes actually materialized (the paper's 'physical' footprint):
        #: a running count, since ``SimFS.stat`` reads it on every call.
        self.allocated_bytes = 0
        self._starts: list[int] = []
        self._bufs: list[bytearray] = []

    # -- queries -------------------------------------------------------------

    def extents(self) -> list[tuple[int, int]]:
        """Materialized ``(offset, length)`` runs: ascending, disjoint, and
        never touching — pieces that abut are reported as one run."""
        out: list[tuple[int, int]] = []
        end = -1
        for s, b in zip(self._starts, self._bufs):
            if s == end:
                lo, n = out[-1]
                out[-1] = (lo, n + len(b))
            else:
                out.append((s, len(b)))
            end = s + len(b)
        return out

    # -- mutation ------------------------------------------------------------

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> int:
        """Overlay ``data`` at ``offset``; grows the file as needed.

        Accepts any buffer-protocol object; the single copy happens here,
        into the store's own buffer — no intermediate ``bytes``.
        """
        return self.writev(offset, (data,))

    def writev(self, offset: int, views) -> int:
        """Overlay ``views`` back to back at ``offset``; a run that does not
        land inside one piece becomes exactly one new piece."""
        if offset < 0:
            raise BackendUsageError(f"negative offset: {offset}")
        views = [as_view(v) for v in views]
        n = sum(v.nbytes for v in views)
        if n == 0:
            return 0
        self.version = next(_version_clock)
        starts, bufs = self._starts, self._bufs
        lo, hi = offset, offset + n
        first, last = self._overlap_range(lo, hi)
        if last == first + 1 and starts[first] <= lo and hi <= starts[first] + len(bufs[first]):
            # Inside one piece: splice in place, same length.  Replacing
            # the piece instead would copy all of it for a small rewrite.
            buf, pos = bufs[first], lo - starts[first]
            for v in views:
                buf[pos : pos + v.nbytes] = v
                pos += v.nbytes
            return n
        piece = bytearray(views[0]) if len(views) == 1 else bytearray().join(views)
        new_starts, new_bufs = [lo], [piece]
        freed = 0
        if first < last:
            s = starts[first]
            if s < lo:  # keep the head of the first piece
                new_starts.insert(0, s)
                new_bufs.insert(0, bufs[first][: lo - s])
            s = starts[last - 1]
            if s + len(bufs[last - 1]) > hi:  # ... and the tail of the last
                new_starts.append(hi)
                new_bufs.append(bufs[last - 1][hi - s :])
            freed = sum(len(b) for b in bufs[first:last])
        starts[first:last] = new_starts
        bufs[first:last] = new_bufs
        self.allocated_bytes += sum(len(b) for b in new_bufs) - freed
        self.size = max(self.size, hi)
        return n

    def read(self, offset: int, n: int) -> bytes:
        """Read up to ``n`` bytes at ``offset``; holes come back as zeros.

        The result is assembled in one copy from views of the pieces.
        """
        if offset < 0 or n < 0:
            raise BackendUsageError("offset and n must be non-negative")
        n = max(0, min(n, self.size - offset))
        if n == 0:
            return b""
        lo, hi = offset, offset + n
        first, last = self._overlap_range(lo, hi)
        parts: list = []
        pos = lo
        for i in range(first, last):
            s = self._starts[i]
            b = self._bufs[i]
            if s > pos:
                parts.append(bytes(s - pos))
            e = min(s + len(b), hi)
            start = max(s, lo)
            parts.append(memoryview(b)[start - s : e - s])
            pos = e
        if pos < hi:
            parts.append(bytes(hi - pos))
        return b"".join(parts)

    # -- internals -------------------------------------------------------------

    def _overlap_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Indices [first, last) of pieces intersecting [lo, hi)."""
        first = bisect_right(self._starts, lo) - 1
        if first >= 0:
            s = self._starts[first]
            if s + len(self._bufs[first]) <= lo:
                first += 1
        else:
            first = 0
        last = bisect_left(self._starts, hi, lo=first)
        return first, last


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

    def pwrite(self, offset: int, data: bytes | bytearray | memoryview) -> int:
        """Write ``data`` at ``offset``; a gap past EOF stays a hole."""
        self._check_open()
        self._check_writable()
        with self._fs._lock:
            n = self._data.write(offset, data)
            self._fs._account_data("write", n)
        return n

    def pread(self, offset: int, n: int) -> bytes:
        """Read up to ``n`` bytes at ``offset`` (short at EOF)."""
        self._check_open()
        if not self.readable:
            raise InvalidOperationError(f"{self.path}: not open for reading")
        with self._fs._lock:
            out = self._data.read(offset, n)
            self._fs._account_data("read", len(out))
        return out

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
            self._fs._account_data("write", total)
        return total

    def preadv(self, offset: int, sizes) -> list[bytes]:
        """Vectored positional read of consecutive ``sizes`` at ``offset``."""
        self._check_open()
        if not self.readable:
            raise InvalidOperationError(f"{self.path}: not open for reading")
        with self._fs._lock:
            out: list[bytes] = []
            pos = offset
            for size in sizes:
                if size < 0:
                    raise BackendUsageError(f"negative read size: {size}")
                out.append(self._data.read(pos, size))
                pos += size
            self._fs._account_data("read", sum(len(p) for p in out))
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
            self._fs._account_meta("close")

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
    """In-memory hierarchical file system with virtual-time accounting."""

    def __init__(
        self,
        profile: SystemProfile | None = None,
        serial_bw_mb_s: float | None = None,
        blocksize_override: int | None = None,
    ) -> None:
        if blocksize_override is not None and blocksize_override < 1:
            raise InvalidOperationError("blocksize_override must be positive")
        self.profile = profile
        self.blocksize_override = blocksize_override
        self._root = _Inode("dir")
        self.clock = 0.0
        self.op_counts: dict[str, int] = {}
        # SPMD workloads drive many rank threads (or bulk-engine workers)
        # into one SimFS concurrently; piece-list surgery and the clock
        # accounting are multi-step and must not interleave.  Reentrant:
        # data ops account inside the same critical section.
        self._lock = threading.RLock()
        if serial_bw_mb_s is not None:
            self._serial_bw = serial_bw_mb_s
        elif profile is not None:
            self._serial_bw = profile.per_file_bw("write")
        else:
            self._serial_bw = None  # timing disabled for data

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
                        self._account_meta("mkdir")
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
                self._account_meta("create")
            else:
                if inode.kind != "file":
                    raise InvalidOperationError(f"{path}: is a directory")
                self._account_meta("open")
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
        """Stat; ``st_blksize`` comes from the machine profile."""
        inode = self._lookup(path)
        self._account_meta("stat")
        if self.blocksize_override is not None:
            blk = self.blocksize_override
        elif self.profile is not None:
            blk = self.profile.fs_block_size
        else:
            blk = _DEFAULT_BLKSIZE
        if inode.kind == "dir":
            return SimStat(0, blk, 0, True)
        assert inode.data is not None
        return SimStat(
            inode.data.size, blk, inode.data.allocated_bytes, False,
            inode.data.version,
        )

    def extents_of(self, path: str) -> tuple[int, list[tuple[int, int]]]:
        """``(size, materialized extents)`` of a file, without accounting.

        The extents are ascending, disjoint, non-touching ``(offset,
        length)`` runs, however many writes built them; holes between
        them read as zeros.  Together with the bytes under each run
        this determines the file content exactly, which is what content
        fingerprints (e.g. the scale suite's multifile hash pin) are built
        from — a free-of-charge introspection, so no op accounting happens.
        """
        inode = self._lookup(path)
        if inode.kind != "file":
            raise InvalidOperationError(f"{path}: is a directory")
        assert inode.data is not None
        with self._lock:
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
            self._account_meta("unlink")

    def listdir(self, path: str = "/") -> list[str]:
        """Sorted entry names of a directory."""
        inode = self._lookup(path)
        if inode.kind != "dir":
            raise NotADirectorySimError(path)
        return sorted(inode.entries)

    def rename(self, old: str, new: str) -> None:
        """Move a file or directory (new parent must exist)."""
        oparts = self._split(old)
        nparts = self._split(new)
        with self._lock:
            oparent = self._walk_dir(oparts[:-1], old)
            inode = oparent.entries.get(oparts[-1])
            if inode is None:
                raise FileNotFoundSimError(old)
            nparent = self._walk_dir(nparts[:-1], new)
            if nparts[-1] in nparent.entries:
                raise FileExistsSimError(new)
            del oparent.entries[oparts[-1]]
            nparent.entries[nparts[-1]] = inode

    # -- accounting -----------------------------------------------------------------

    def _account_meta(self, kind: str) -> None:
        with self._lock:
            self.op_counts[kind] = self.op_counts.get(kind, 0) + 1
            if self.profile is not None:
                self.clock += self.profile.metadata_costs.base_time(kind)

    def _account_data(self, op: str, nbytes: int) -> None:
        with self._lock:
            key = f"{op}_bytes"
            self.op_counts[key] = self.op_counts.get(key, 0) + nbytes
            if self._serial_bw:
                self.clock += nbytes / (self._serial_bw * 1e6)

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
