"""Multiple-file-parallel baseline: one physical file per task.

This is the access pattern SIONlib replaces.  Functionally trivial — the
cost is in metadata: N simultaneous creates in one directory serialize on
the directory lock / metadata server, which the simulated experiments
measure (Fig. 3) and which the functional implementation here reproduces
by issuing one create per task against the backend.
"""

from __future__ import annotations

from repro.backends.base import Backend
from repro.backends.localfs import LocalBackend
from repro.errors import SionUsageError
from repro.simmpi.comm import Comm


def task_local_path(base: str, rank: int) -> str:
    """Naming convention for task-local files: ``base.NNNNNN``."""
    if rank < 0:
        raise SionUsageError(f"rank must be non-negative: {rank}")
    return f"{base}.{rank:06d}"


def write_task_local(
    comm: Comm, base: str, data: bytes, backend: Backend | None = None
) -> str:
    """Each task creates and writes its own physical file.

    Returns the path this task wrote.  No communication is involved —
    that is the approach's appeal and, at scale, its downfall.
    """
    backend = backend if backend is not None else LocalBackend()
    path = task_local_path(base, comm.rank)
    with backend.open(path, "wb") as f:
        f.pwrite(0, data)
    return path


def read_task_local(
    comm: Comm, base: str, backend: Backend | None = None
) -> bytes:
    """Each task reads back its own physical file."""
    backend = backend if backend is not None else LocalBackend()
    path = task_local_path(base, comm.rank)
    with backend.open(path, "rb") as f:
        return f.pread(0, backend.file_size(path))


def unlink_task_local(
    comm: Comm, base: str, backend: Backend | None = None
) -> None:
    """Each task removes its own file (cleanup is also a per-file op)."""
    backend = backend if backend is not None else LocalBackend()
    backend.unlink(task_local_path(base, comm.rank))
