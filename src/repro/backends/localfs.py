"""Backend over the real (POSIX) file system.

Files are opened *unbuffered* (raw ``FileIO``): every call is a
positioned or vectored one (``os.pwrite``/``os.pwritev``/…) straight
against the file descriptor, so the descriptor's own offset is never
used and no user-space buffer has to be kept coherent.  Partial
reads/writes — legal for raw files — are completed by looping, so
callers get all-or-nothing semantics.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.backends.base import Backend, RawFile
from repro.buffers import BufferLike, as_view
from repro.errors import BackendUsageError

#: POSIX caps one writev/readv at IOV_MAX iovecs; use the platform's
#: actual bound (Linux: 1024) rather than assuming it.
try:
    _IOV_MAX = os.sysconf("SC_IOV_MAX")
    if _IOV_MAX <= 0:
        _IOV_MAX = 1024
except (AttributeError, OSError, ValueError):  # pragma: no cover - exotic hosts
    _IOV_MAX = 1024

_HAVE_PWRITEV = hasattr(os, "pwritev")
_HAVE_PREADV = hasattr(os, "preadv")


class LocalRawFile(RawFile):
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

    # -- positioned / vectored (native) ------------------------------------

    def pwrite(self, offset: int, data: BufferLike) -> int:
        view = as_view(data)
        fd = self._f.fileno()
        total = view.nbytes
        done = os.pwrite(fd, view, offset)
        while done < total:  # pragma: no cover - raw partial writes are rare
            done += os.pwrite(fd, view[done:], offset + done)
        return total

    def pread(self, offset: int, n: int) -> bytes:
        if n < 0:
            raise BackendUsageError(f"negative read size: {n}")
        fd = self._f.fileno()
        parts: list[bytes] = []
        remaining = n
        while remaining > 0:
            piece = os.pread(fd, remaining, offset)
            if not piece:
                break
            parts.append(piece)
            offset += len(piece)
            remaining -= len(piece)
        if len(parts) == 1:
            return parts[0]
        return b"".join(parts)

    def _pwritev(self, offset: int, views: Sequence[memoryview]) -> int:
        if not _HAVE_PWRITEV:  # pragma: no cover - exercised on exotic hosts
            return super()._pwritev(offset, views)
        fd = self._f.fileno()
        total = 0
        for start in range(0, len(views), _IOV_MAX):
            batch = views[start : start + _IOV_MAX]
            need = sum(v.nbytes for v in batch)
            done = os.pwritev(fd, batch, offset + total)
            if done < need:  # pragma: no cover - partial vectored write
                acc = 0
                for v in batch:
                    if acc + v.nbytes > done:
                        cut = max(done - acc, 0)
                        self.pwrite(offset + total + acc + cut, v[cut:])
                    acc += v.nbytes
            total += need
        return total

    def _preadv(self, offset: int, sizes: Sequence[int]) -> list[bytes]:
        sizes = [int(s) for s in sizes]
        if any(s < 0 for s in sizes):
            raise BackendUsageError("read sizes must be non-negative")
        if not _HAVE_PREADV:  # pragma: no cover - exercised on exotic hosts
            return super()._preadv(offset, sizes)
        fd = self._f.fileno()
        out: list[bytes] = [b""] * len(sizes)
        pos = offset
        idx = 0
        while idx < len(sizes):
            batch_idx = [
                i for i in range(idx, min(idx + _IOV_MAX, len(sizes))) if sizes[i] > 0
            ]
            batch_end = min(idx + _IOV_MAX, len(sizes))
            if batch_idx:
                bufs = [bytearray(sizes[i]) for i in batch_idx]
                need = sum(len(b) for b in bufs)
                got = os.preadv(fd, bufs, pos)
                if got < need and self.pread(pos + got, 1):
                    # A short read that is *not* EOF (signal interruption):
                    # retake this batch with the loop-until-done scalar path.
                    for i in batch_idx:
                        out[i] = self.pread(pos, sizes[i])
                        pos += sizes[i]
                    idx = batch_end
                    continue
                # Trim at EOF: buffers past ``got`` shrink, then empty.
                acc = 0
                for i, buf in zip(batch_idx, bufs):
                    take = max(0, min(len(buf), got - acc))
                    out[i] = bytes(buf[:take])
                    acc += len(buf)
                pos += need
            idx = batch_end
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
