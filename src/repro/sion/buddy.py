"""Buddy-replica checkpointing: mirror every write to a partner file.

SIONlib's buddy checkpointing trades storage for survivability: each
physical file of a multifile set is written twice — once at its own
path, once as a *replica* hosted on the partner group's name stem — so
the loss of one entire physical file (node-local storage gone, stripe
corrupted, file deleted) costs nothing but a
:func:`~repro.sion.recovery.recover_multifile` run.

The placement rule is :func:`buddy_path`: the replica of physical file
``f`` lives at ``physical_path(base, (f + 1) % nfiles) + ".buddy"``.
Hosting the replica on the *partner's* stem matters — if a failure takes
out everything sharing file ``f``'s name stem (e.g. one OST, one
node-local disk), file ``f``'s replica survives on stem ``f + 1``.  With
``nfiles == 1`` the rule degenerates to ``base + ".buddy"``, which still
survives deletion of the primary.

Mechanically the mode is one wrapper: :class:`MirrorRawFile` duplicates
the write-side ``RawFile`` calls onto two physical handles.  The open
pipeline (:mod:`repro.sion.openspec`) hands the write executors a mirror
instead of a plain handle, so chunk writes, shadow headers, and both
metablocks reach primary and replica through the *same* code path — the
replica is byte-identical to the primary by construction, not by a
separate copy pass.  Readers never consult replicas; metablock 1 merely
records :data:`~repro.sion.constants.FLAG_BUDDY` so tools and recovery
know replicas exist.
"""

from __future__ import annotations

from typing import Sequence

from repro.backends.base import RawFile
from repro.buffers import BufferLike
from repro.sion.constants import BUDDY_SUFFIX
from repro.sion.mapping import physical_path


def buddy_path(base: str, filenum: int, nfiles: int) -> str:
    """Path hosting the replica of physical file ``filenum``.

    The replica rides on the next file's name stem (wrapping around), so
    a whole-stem loss never takes both copies of any file.
    """
    return physical_path(base, (filenum + 1) % nfiles) + BUDDY_SUFFIX


class MirrorRawFile(RawFile):
    """Duplicate every mutation onto a primary and a replica handle.

    ``pwrite``, ``scatter_write``, ``flush`` and ``close`` reach both
    handles; ``pread`` and ``gather_read`` are served by the primary
    alone.  Return values are the primary's.  Every call forwards
    explicitly, so a mirrored ``scatter_write`` costs exactly one
    ``scatter_write`` per copy — instrumented counts stay interpretable
    (replica overhead is a clean 2x of every write-side counter).
    """

    def __init__(self, primary: RawFile, replica: RawFile) -> None:
        """Bind the two physical handles (both already open for writing)."""
        self.primary = primary
        self.replica = replica

    def pwrite(self, offset: int, data: BufferLike) -> int:
        """Positioned write to both copies."""
        n = self.primary.pwrite(offset, data)
        self.replica.pwrite(offset, data)
        return n

    def pread(self, offset: int, n: int) -> bytes:
        """Positioned read from the primary."""
        return self.primary.pread(offset, n)

    def scatter_write(self, fragments) -> int:
        """Vectored write to both copies (one call per copy)."""
        frags = list(fragments)
        n = self.primary.scatter_write(frags)
        self.replica.scatter_write(frags)
        return n

    def gather_read(self, requests: Sequence[tuple[int, int]]) -> list[bytes]:
        """Vectored read from the primary."""
        return self.primary.gather_read(requests)

    def flush(self) -> None:
        """Flush both copies."""
        self.primary.flush()
        self.replica.flush()

    def close(self) -> None:
        """Close both handles, replica first; the primary's error wins."""
        try:
            self.replica.close()
        finally:
            self.primary.close()
