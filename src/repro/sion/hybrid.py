"""Hybrid MPI+threads support (paper §6 roadmap).

The paper: *"with the currently still somewhat MPI-centric interface of
SIONlib, we plan to support the analysis of hybrid codes via a separate
multifile for every OpenMP thread identifier, resulting in at most four
multifiles on Jugene with its four cores per node."*

:func:`paropen_hybrid` implements exactly that scheme: thread ``t`` of
every rank writes to multifile ``<path>.tNN`` — so a hybrid job with
``nthreads`` threads per rank produces at most ``nthreads`` multifile sets
regardless of rank count.  Each rank calls it once (collectively) and gets
a :class:`HybridParallelFile` whose per-thread handles are independent
streams, safe to drive from concurrent threads (each owns its own file
descriptor and cursor).
"""

from __future__ import annotations

from repro.backends.base import Backend
from repro.errors import SionUsageError
from repro.simmpi.comm import Comm
from repro.sion.openspec import OpenSpec, SionReadFile
from repro.sion.parallel import SionParallelFile, open_access
from repro.sion.readwrite import PartitionStream
from repro.sion.serial import open_rank


def thread_multifile_path(base: str, thread: int) -> str:
    """Multifile set written by thread ``thread`` of every rank."""
    if thread < 0:
        raise SionUsageError(f"thread id must be non-negative: {thread}")
    return f"{base}.t{thread:02d}"


def paropen_hybrid(
    path: str,
    mode: str,
    comm: Comm,
    nthreads: int,
    chunksize: int | list[int] | None = None,
    *,
    backend: Backend | None = None,
    **kwargs,
) -> "HybridParallelFile":
    """Collectively open one multifile per thread identifier.

    ``chunksize`` may be a single value (same for all threads) or one per
    thread.  All other keyword arguments become part of each thread's
    :class:`~repro.sion.openspec.OpenSpec` (``nfiles``, ``compress``,
    ``shadow``, ...), so every per-thread open goes through the same
    validated pipeline as :func:`~repro.sion.parallel.paropen` — and a
    contradictory option combination fails *before* thread 0's multifile
    is touched, not halfway through the set.

    Every rank must call this with the same ``nthreads``; the per-thread
    opens are ordinary collectives executed in thread order, so no extra
    synchronization machinery is needed.
    """
    if nthreads < 1:
        raise SionUsageError(f"nthreads must be >= 1, got {nthreads}")
    if mode == "w":
        if chunksize is None:
            raise SionUsageError("write mode requires chunksize")
        sizes = (
            list(chunksize)
            if isinstance(chunksize, (list, tuple))
            else [int(chunksize)] * nthreads
        )
        if len(sizes) != nthreads:
            raise SionUsageError(
                f"got {len(sizes)} chunk sizes for {nthreads} threads"
            )
    else:
        sizes = [None] * nthreads  # type: ignore[list-item]
    specs = [
        OpenSpec.for_paropen(
            path=thread_multifile_path(path, t),
            mode=mode,
            chunksize=sizes[t],
            **kwargs,
        )
        for t in range(nthreads)
    ]
    handles = [open_access(spec, comm, backend) for spec in specs]
    return HybridParallelFile(path, mode, comm, handles)


class HybridParallelFile:
    """Per-rank view of a hybrid job's thread multifiles."""

    def __init__(
        self, base_path: str, mode: str, comm: Comm, handles: "list[SionParallelFile | SionReadFile]"
    ) -> None:
        self.base_path = base_path
        self.mode = mode
        self.comm = comm
        self._handles = handles
        self._closed = False

    def stream(self, thread: int) -> "SionParallelFile | SionReadFile":
        """The multifile handle owned by ``thread`` on this rank.

        Handles are independent; concurrent threads may each use their own
        without locking (they never share a file cursor).
        """
        if self._closed:
            raise SionUsageError("hybrid multifile is closed")
        if not 0 <= thread < len(self._handles):
            raise SionUsageError(
                f"thread {thread} out of range ({len(self._handles)} threads)"
            )
        return self._handles[thread]

    def parclose(self) -> None:
        """Collectively close every thread multifile (thread order)."""
        if self._closed:
            raise SionUsageError("hybrid multifile already closed")
        for h in self._handles:
            h.parclose()
        self._closed = True

    def __enter__(self) -> "HybridParallelFile":
        return self

    def __exit__(self, *exc: object) -> None:
        if not self._closed:
            self.parclose()


def open_rank_thread(
    path: str, rank: int, thread: int, backend: Backend | None = None
) -> PartitionStream:
    """Serial task-local view of one (rank, thread) logical file.

    This is what a hybrid-aware trace analyzer uses to load the stream of
    one OpenMP thread of one MPI rank.
    """
    return open_rank(thread_multifile_path(path, thread), rank, backend=backend)
