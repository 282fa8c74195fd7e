"""Chunk/block offset arithmetic with file-system block alignment.

This is the heart of the file organization (paper §3.1 and Fig. 2):

* every task owns one *chunk* per *block*;
* chunk allocations are rounded up to a multiple of the FS block size so no
  two tasks ever share an FS block (avoids write-lock false sharing);
* block ``b``'s chunk for task ``t`` starts at
  ``start_of_data + b * block_capacity + chunk_prefix[t]``;
* tasks can compute any chunk's address locally — growing into a new block
  needs **no communication**, only metadata accounting at close.

The same :class:`ChunkLayout` drives the real library, the serial tools,
and the simulated experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SionUsageError

#: Use the vectorized geometry computation from this many tasks upward;
#: below it the scalar reference implementation is both faster (no array
#: round-trip) and exercised by every small-world test.
_VECTOR_MIN_TASKS = 64

#: Per-value bound for the vectorized path (1 TiB per chunk / block): with
#: at most ``_VECTOR_MAX_TASKS`` tasks the round-up, the multiply back and
#: the whole-file cumsum all stay comfortably inside int64.  Larger values
#: (only seen in adversarial property tests) take the scalar big-int path.
_INT64_SAFE_MAX = 2**40
_VECTOR_MAX_TASKS = 2**20


def align_up(value: int, granularity: int) -> int:
    """Smallest multiple of ``granularity`` that is >= ``value``."""
    if granularity < 1:
        raise SionUsageError(f"alignment granularity must be positive: {granularity}")
    if value < 0:
        raise SionUsageError(f"cannot align a negative size: {value}")
    return ((value + granularity - 1) // granularity) * granularity


def scalar_chunk_geometry(
    chunksizes: list[int], fsblksize: int
) -> tuple[list[int], list[int], int]:
    """Reference implementation of the chunk geometry, one task at a time.

    Returns ``(aligned_sizes, chunk_prefix, block_capacity)``.  This is the
    paper's per-task arithmetic kept verbatim; the vectorized path in
    :class:`ChunkLayout` must match it element for element (property-tested
    in ``tests/sion/test_vectorized_equivalence.py``).
    """
    aligned = [max(align_up(c, fsblksize), fsblksize) for c in chunksizes]
    prefix: list[int] = []
    acc = 0
    for size in aligned:
        prefix.append(acc)
        acc += size
    return aligned, prefix, acc


def _vector_chunk_geometry(
    chunksizes: list[int], fsblksize: int
) -> tuple[list[int], list[int], int]:
    """ndarray fast path: whole-array round-up, max and prefix sum."""
    arr = np.asarray(chunksizes, dtype=np.int64)
    aligned = np.maximum((arr + (fsblksize - 1)) // fsblksize, 1) * fsblksize
    ends = np.cumsum(aligned)
    prefix = ends - aligned
    return aligned.tolist(), prefix.tolist(), int(ends[-1])


@dataclass
class ChunkLayout:
    """Resolved on-disk geometry of one physical file's chunk array.

    Parameters
    ----------
    fsblksize:
        Alignment granularity (the FS block size, or the user's override —
        using a value smaller than the true block size reintroduces the
        false sharing that Table 1 quantifies).
    chunksizes:
        Requested chunk size per local task, in bytes.  Each is rounded up
        to a whole number of FS blocks, with a minimum of one block (the
        paper notes SIONlib "writes at least one file-system block per
        task").
    metablock1_size:
        Bytes occupied by metablock 1; data starts at the next FS block
        boundary after it.
    """

    fsblksize: int
    chunksizes: list[int]
    metablock1_size: int
    aligned_sizes: list[int] = field(init=False)
    chunk_prefix: list[int] = field(init=False)
    block_capacity: int = field(init=False)
    start_of_data: int = field(init=False)

    def __post_init__(self) -> None:
        if self.fsblksize < 1:
            raise SionUsageError(f"fsblksize must be positive: {self.fsblksize}")
        if self.metablock1_size < 0:
            raise SionUsageError("metablock1_size must be non-negative")
        n = len(self.chunksizes)
        # min() is a single C pass; the generator-expression any() it
        # replaces dominated __post_init__ at large task counts.
        if n and min(self.chunksizes) < 0:
            raise SionUsageError("chunk sizes must be non-negative")
        if (
            _VECTOR_MIN_TASKS <= n <= _VECTOR_MAX_TASKS
            and self.fsblksize <= _INT64_SAFE_MAX
            and max(self.chunksizes) <= _INT64_SAFE_MAX
        ):
            geometry = _vector_chunk_geometry(self.chunksizes, self.fsblksize)
        else:
            geometry = scalar_chunk_geometry(self.chunksizes, self.fsblksize)
        self.aligned_sizes, self.chunk_prefix, self.block_capacity = geometry
        self.start_of_data = align_up(self.metablock1_size, self.fsblksize)

    @classmethod
    def from_metablock1(cls, mb1) -> "ChunkLayout":
        """Rebuild the layout of an existing file from its metablock 1.

        Uses the *stored* ``start_of_data`` (authoritative) rather than
        recomputing it, so readers stay correct even if a future writer
        changes the metablock encoding size.
        """
        lay = cls(mb1.fsblksize, list(mb1.chunksizes), 0)
        lay.start_of_data = mb1.start_of_data
        return lay

    # -- geometry -----------------------------------------------------------

    @property
    def ntasks(self) -> int:
        """Number of local tasks laid out in this file."""
        return len(self.chunksizes)

    def capacity(self, task: int) -> int:
        """Writable bytes in each of ``task``'s chunks (the aligned size).

        The usable capacity is the *allocated* (aligned) size: SIONlib
        allocates whole FS blocks, so writes may use the padding.
        """
        self._check_task(task)
        return self.aligned_sizes[task]

    def chunk_start(self, task: int, block: int) -> int:
        """Absolute file offset of ``task``'s chunk in ``block``."""
        self._check_task(task)
        if block < 0:
            raise SionUsageError(f"block must be non-negative: {block}")
        return (
            self.start_of_data
            + block * self.block_capacity
            + self.chunk_prefix[task]
        )

    def chunk_end(self, task: int, block: int) -> int:
        """Exclusive end offset of the chunk's allocation."""
        return self.chunk_start(task, block) + self.aligned_sizes[task]

    def end_of_blocks(self, nblocks: int) -> int:
        """Offset one past the last allocated block (metablock 2 goes here)."""
        if nblocks < 0:
            raise SionUsageError("nblocks must be non-negative")
        return self.start_of_data + nblocks * self.block_capacity

    def locate(self, offset: int) -> tuple[int, int, int] | None:
        """Inverse mapping: file offset -> ``(task, block, pos_in_chunk)``.

        Returns ``None`` for offsets outside chunk data (metablock area).
        Used by the recovery scanner and by tests as the inverse of
        :meth:`chunk_start`.
        """
        if offset < self.start_of_data or self.block_capacity == 0:
            return None
        rel = offset - self.start_of_data
        block, in_block = divmod(rel, self.block_capacity)
        # Binary search over the prefix array.
        lo, hi = 0, self.ntasks - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.chunk_prefix[mid] <= in_block:
                lo = mid
            else:
                hi = mid - 1
        task = lo
        pos = in_block - self.chunk_prefix[task]
        if pos >= self.aligned_sizes[task]:  # pragma: no cover - padding gap
            return None
        return task, block, pos

    def read_requests(
        self, task: int, blocksizes: list[int], data_offset: int = 0
    ) -> list[tuple[int, int]]:
        """Complete ``(offset, size)`` request list of one task's stream.

        The fragment plan of collector-rank aggregation (ISSUE 4): a
        sender computes — purely locally, no communication — every
        positioned read that covers its recorded ``blocksizes``, so a
        collector can fetch all of its senders' data in **one**
        ``gather_read``.  ``data_offset`` skips per-chunk shadow headers.
        Empty blocks produce no request, matching the read-side
        :class:`~repro.sion.readwrite.TaskStream` plan exactly.
        """
        self._check_task(task)
        if data_offset < 0:
            raise SionUsageError("data_offset must be non-negative")
        base = self.start_of_data + self.chunk_prefix[task] + data_offset
        stride = self.block_capacity
        return [
            (base + block * stride, size)
            for block, size in enumerate(blocksizes)
            if size > 0
        ]

    def chunk_starts(self, tasks: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """:meth:`chunk_start` over parallel int arrays, in one pass."""
        prefix = np.asarray(self.chunk_prefix, dtype=np.int64)
        return self.start_of_data + blocks * self.block_capacity + prefix[tasks]

    def is_aligned(self, true_fsblksize: int) -> bool:
        """True when every chunk boundary falls on a ``true_fsblksize`` edge."""
        if true_fsblksize < 1:
            raise SionUsageError("true_fsblksize must be positive")
        if self.start_of_data % true_fsblksize:
            return False
        return all(
            (self.chunk_start(t, 0)) % true_fsblksize == 0 for t in range(self.ntasks)
        )

    # -- internals ------------------------------------------------------------

    def _check_task(self, task: int) -> None:
        if not 0 <= task < self.ntasks:
            raise SionUsageError(
                f"task {task} out of range for {self.ntasks} local tasks"
            )
