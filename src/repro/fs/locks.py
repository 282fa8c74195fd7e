"""Block-granularity write-lock (false sharing) model.

GPFS grants write tokens at file-system-block granularity.  When the chunks
of two tasks share one FS block — which happens whenever SIONlib is
configured with a block size smaller than the real one — each write forces a
token revocation round-trip, serializing the writers of that block.  The
paper's Table 1 measures a 2.53x write and 1.78x read penalty for 16 KB
chunks on a 2 MB-block GPFS.

The model: with ``k`` writers sharing each FS block, effective bandwidth is
divided by ``1 + c * (1 - 1/k)`` where ``c`` is a file-system-specific
contention coefficient (``c = 0`` for Lustre, whose extent locks the paper
found unaffected).  ``k = 1`` (perfect alignment) gives penalty 1.0; the
penalty saturates as ``k`` grows, matching the measured factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelUsageError


@dataclass(frozen=True)
class LockContentionModel:
    """Contention coefficients of one file system's token manager."""

    write_coeff: float
    read_coeff: float

    def sharers_per_block(self, chunk_align_bytes: int, fs_block_bytes: int) -> float:
        """Average number of tasks whose chunks touch one FS block.

        Chunks are contiguous and aligned to ``chunk_align_bytes``.  If that
        is a multiple of the true FS block size there is no sharing (k=1);
        otherwise ``fs_block / align`` distinct chunks fit into (and
        contend for) each block, plus boundary effects we fold into the
        ratio.
        """
        if chunk_align_bytes < 1 or fs_block_bytes < 1:
            raise ModelUsageError("sizes must be positive")
        if chunk_align_bytes % fs_block_bytes == 0:
            return 1.0
        if fs_block_bytes % chunk_align_bytes == 0:
            return fs_block_bytes / chunk_align_bytes
        # Misaligned, non-divisible: every boundary is shared by 2 writers.
        return max(2.0, fs_block_bytes / chunk_align_bytes)

    def penalty(self, op: str, sharers: float) -> float:
        """Bandwidth division factor for ``op`` with ``sharers`` per block.

        The one place the op picks its coefficient: the flow model
        (:func:`repro.workloads.common.parallel_io`) and its closed-form
        reference (:func:`repro.analysis.model.predict_alignment_factor`)
        both price false sharing through it.
        """
        if op == "write":
            return self.write_penalty(sharers)
        if op == "read":
            return self.read_penalty(sharers)
        raise ModelUsageError(f"op must be 'read' or 'write', got {op!r}")

    def write_penalty(self, sharers: float) -> float:
        """Bandwidth division factor for writes with ``sharers`` per block."""
        return self._penalty(sharers, self.write_coeff)

    def read_penalty(self, sharers: float) -> float:
        """Bandwidth division factor for reads with ``sharers`` per block."""
        return self._penalty(sharers, self.read_coeff)

    @staticmethod
    def _penalty(sharers: float, coeff: float) -> float:
        if sharers < 1.0:
            raise ModelUsageError(f"sharers must be >= 1, got {sharers}")
        return 1.0 + coeff * (1.0 - 1.0 / sharers)


def blocks_shared_by_layout(
    chunk_starts: list[int], chunk_ends: list[int], fs_block_bytes: int
) -> dict[int, int]:
    """Map FS block index -> number of distinct chunks touching it.

    Exact layout-level sharing count, used to validate the analytic
    ``sharers_per_block`` approximation in tests.  ``chunk_ends`` are
    exclusive.
    """
    if len(chunk_starts) != len(chunk_ends):
        raise ModelUsageError("starts and ends must have the same length")
    counts: dict[int, int] = {}
    for s, e in zip(chunk_starts, chunk_ends):
        if e <= s:
            continue
        first = s // fs_block_bytes
        last = (e - 1) // fs_block_bytes
        for b in range(first, last + 1):
            counts[b] = counts.get(b, 0) + 1
    return counts


def mean_sharers(shared: dict[int, int]) -> float:
    """Average writers per touched block (1.0 when nothing is shared)."""
    if not shared:
        return 1.0
    return sum(shared.values()) / len(shared)
