"""Backend over the real (POSIX) file system.

Files are opened *unbuffered* (raw ``FileIO``): each contiguous run of
a ``scatter_write`` / ``gather_read`` is one positioned call straight
against the file descriptor (``os.pwritev`` of its views, ``os.pread``
of its bytes into one buffer), so the descriptor's own offset is never
used and no user-space buffer has to be kept coherent.  Partial reads/writes — legal for raw files — are
completed by looping, so callers get all-or-nothing semantics.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.backends.base import Backend, StoreFile
from repro.errors import BackendUsageError

#: POSIX caps one writev/readv at IOV_MAX iovecs; use the platform's
#: actual bound (Linux: 1024) rather than assuming it.
try:
    _IOV_MAX = os.sysconf("SC_IOV_MAX")
    if _IOV_MAX <= 0:
        _IOV_MAX = 1024
except (AttributeError, OSError, ValueError):  # pragma: no cover - exotic hosts
    _IOV_MAX = 1024


class LocalRawFile(StoreFile):
    """Adapter around an unbuffered binary file object.

    Open handles are **picklable** (a requirement of the process SPMD
    engine): the pickle records the path and an equivalent reopen mode,
    and unpickling reopens the file.  Create/truncate modes (``w``/``x``)
    are rewritten to ``r+`` for the reopen — the file already exists by
    pickle time, and a child process re-truncating the parent's file
    would destroy data.  The two handles are then independent
    descriptors on the same file, exactly like a ``dup``'d fd.
    """

    def __init__(self, fobj) -> None:
        self._f = fobj

    def __getstate__(self) -> dict:
        f = self._f
        if f.closed:
            raise TypeError("cannot pickle a closed LocalRawFile")
        path = getattr(f, "name", None)
        if not isinstance(path, (str, bytes, os.PathLike)):
            raise TypeError(
                "cannot pickle a LocalRawFile without a filesystem path "
                f"(name={path!r}); open it by path to make it portable"
            )
        mode = getattr(f, "mode", "rb")
        if "w" in mode or "x" in mode:
            reopen = "r+b"
        elif "b" not in mode:  # pragma: no cover - FileIO modes carry 'b'
            reopen = mode + "b"
        else:
            reopen = mode
        return {"path": os.fspath(path), "mode": reopen}

    def __setstate__(self, state: dict) -> None:
        self._f = open(state["path"], state["mode"], buffering=0)

    def flush(self) -> None:
        self._f.flush()

    def close(self) -> None:
        self._f.close()

    # -- contiguous runs (native vectored calls) ----------------------------

    def _pwritev(self, offset: int, views: Sequence[memoryview]) -> int:
        """One ``os.pwritev`` per ``_IOV_MAX`` views; a raw write that
        stops short goes on from the first byte that did not land."""
        fd = self._f.fileno()
        total = 0
        for start in range(0, len(views), _IOV_MAX):
            batch = list(views[start : start + _IOV_MAX])
            i = 0
            while i < len(batch):
                done = os.pwritev(fd, batch[i:], offset + total)
                total += done
                while i < len(batch) and done >= batch[i].nbytes:
                    done -= batch[i].nbytes
                    i += 1
                if done:  # pragma: no cover - partial vectored write
                    batch[i] = batch[i][done:]
        return total

    def _preadv(self, offset: int, sizes: Sequence[int]) -> list[bytes]:
        """Each batch of up to ``_IOV_MAX`` pieces is read into one buffer
        by ``os.pread`` calls until it is full or the file ends; a batch
        of one piece is handed out as that ``bytes``, any other piece as
        one exact copy of its slice.  Pieces shorten, then empty, at end
        of file."""
        sizes = [int(s) for s in sizes]
        if any(s < 0 for s in sizes):
            raise BackendUsageError("read sizes must be non-negative")
        fd = self._f.fileno()
        out: list[bytes] = []
        for start in range(0, len(sizes), _IOV_MAX):
            batch = sizes[start : start + _IOV_MAX]
            pos, offset = offset, offset + sum(batch)
            parts: list[bytes] = []
            while pos < offset:
                piece = os.pread(fd, offset - pos, pos)
                if not piece:
                    break
                parts.append(piece)
                pos += len(piece)
            data = parts[0] if len(parts) == 1 else b"".join(parts)
            if len(batch) == 1:
                out.append(data)
                continue
            view, acc = memoryview(data), 0
            for size in batch:
                out.append(bytes(view[acc : acc + size]))
                acc += size
        return out


class LocalBackend(Backend):
    """Real files; block size from ``statvfs`` unless overridden.

    ``blocksize_override`` pins the alignment granularity, which tests use
    to get deterministic layouts regardless of the host file system.
    """

    def __init__(self, blocksize_override: int | None = None) -> None:
        if blocksize_override is not None and blocksize_override < 1:
            raise BackendUsageError("blocksize_override must be positive")
        self.blocksize_override = blocksize_override

    def open(self, path: str, mode: str) -> LocalRawFile:
        if "b" not in mode:
            mode += "b"
        # buffering=0: the fd-level positioned calls bypass any user-space
        # buffer, so there is nothing to flush or invalidate around them.
        return LocalRawFile(open(path, mode, buffering=0))

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def unlink(self, path: str) -> None:
        os.unlink(path)

    def file_size(self, path: str) -> int:
        return os.stat(path).st_size

    def stat_blocksize(self, path: str) -> int:
        if self.blocksize_override is not None:
            return self.blocksize_override
        probe = path if os.path.exists(path) else (os.path.dirname(path) or ".")
        try:
            return os.statvfs(probe).f_bsize or 4096
        except OSError:
            return 4096

    def allocated_size(self, path: str) -> int:
        st = os.stat(path)
        # st_blocks counts 512-byte sectors on Linux.
        return getattr(st, "st_blocks", 0) * 512

    def identity_token(self, path: str) -> tuple:
        """Inode identity, nanosecond mtime, and size — one stat call."""
        st = os.stat(path)
        return (st.st_ino, st.st_mtime_ns, st.st_size)
