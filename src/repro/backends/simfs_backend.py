"""Backend adapter over the simulated file system (:class:`repro.fs.SimFS`).

Lets the complete SION stack — format, layout, parallel and serial APIs,
command-line tools — run unmodified against the in-memory simulator, with
every operation counted in the simulator's ``op_counts``.
"""

from __future__ import annotations

from repro.backends.base import Backend, RawFile
from repro.fs.simfs import SimFS, SimFileHandle


class SimRawFile(RawFile):
    """Adapter from :class:`SimFileHandle` to the backend interface.

    Every call maps 1:1 onto the handle's native one, so one
    scatter/gather run costs one simulated data operation.
    """

    def __init__(self, handle: SimFileHandle) -> None:
        self._h = handle

    def pwrite(self, offset: int, data) -> int:
        return self._h.pwrite(offset, data)

    def pread(self, offset: int, n: int) -> bytes:
        return self._h.pread(offset, n)

    def _pwritev(self, offset: int, views) -> int:
        return self._h.pwritev(offset, views)

    def _preadv(self, offset: int, sizes) -> "list[bytes | memoryview]":
        return self._h.preadv(offset, sizes)

    def flush(self) -> None:
        self._h.flush()

    def close(self) -> None:
        self._h.close()


class SimBackend(Backend):
    """Backend view of one :class:`SimFS` instance.

    **In-process only.**  The simulated store is plain Python state; a
    child process (``run_spmd(..., engine="proc")``) would get an
    independent copy — under ``fork`` a copy-on-write snapshot, under
    ``spawn`` a pickled clone — and every cross-rank write would silently
    vanish at join.  Pickling therefore refuses loudly.  Use
    :class:`~repro.backends.localfs.LocalBackend` with the process
    engine, or keep SimBackend programs on the thread/bulk engines.
    """

    def __init__(self, fs: SimFS | None = None) -> None:
        self.fs = fs if fs is not None else SimFS()

    def __reduce__(self):
        raise TypeError(
            "SimBackend is in-process-only and cannot cross process "
            "boundaries: each child would mutate an invisible copy of the "
            "simulated store.  Use LocalBackend with engine='proc', or run "
            "SimBackend programs on the thread/bulk engines."
        )

    def open(self, path: str, mode: str) -> SimRawFile:
        return SimRawFile(self.fs.open(path, mode))

    def exists(self, path: str) -> bool:
        return self.fs.exists(path)

    def unlink(self, path: str) -> None:
        self.fs.unlink(path)

    def file_size(self, path: str) -> int:
        return self.fs.stat(path).st_size

    def stat_blocksize(self, path: str) -> int:
        probe = path if self.fs.exists(path) else "/"
        return self.fs.stat(probe).st_blksize

    def allocated_size(self, path: str) -> int:
        return self.fs.stat(path).allocated_bytes

    def identity_token(self, path: str) -> tuple:
        """Size plus the simulator's exact mutation version."""
        st = self.fs.stat(path)
        return (st.st_size, st.version)
