"""Task-to-physical-file mapping (paper §3.1, Fig. 2d).

A multifile may be backed by several physical files; every task lives in
exactly one.  The default *blocked* mapping keeps ranks contiguous (e.g.
one physical file per Blue Gene I/O node, as the paper suggests); a
*round-robin* mapping interleaves, and a *custom* mapping accepts an
explicit rank -> file table.

The assignment is stored as two int64 columns (``files`` and ``lranks``,
see :mod:`repro.sion.columns`) built with whole-array operations, so
constructing or reconstructing the mapping of a 2^20-task world costs
milliseconds and 16 bytes per task.  The standard kinds are cached: in an
in-process SPMD world every rank asks for the same mapping, and
recomputing it per rank made the collective open O(n²).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.errors import SionUsageError
from repro.sion.columns import bounds_of, column, ndarray_of
from repro.sion.constants import (
    MAPPING_BLOCKED,
    MAPPING_CUSTOM,
    MAPPING_ROUNDROBIN,
    MULTIFILE_SUFFIX,
)


@dataclass(frozen=True)
class TaskMapping:
    """Immutable assignment of ``ntasks`` global ranks to ``nfiles`` files.

    ``files[rank]`` is the physical file index and ``lranks[rank]`` the
    rank's index within that file's chunk array; both are int64 columns.
    """

    ntasks: int
    nfiles: int
    kind: int
    files: array  # global rank -> file
    lranks: array  # global rank -> local rank

    # -- constructors ---------------------------------------------------------

    @classmethod
    def blocked(cls, ntasks: int, nfiles: int) -> "TaskMapping":
        """Contiguous rank ranges per file, sizes balanced within one."""
        _check_counts(ntasks, nfiles)
        return _blocked_cached(ntasks, nfiles)

    @classmethod
    def roundrobin(cls, ntasks: int, nfiles: int) -> "TaskMapping":
        """Rank ``r`` goes to file ``r % nfiles``."""
        _check_counts(ntasks, nfiles)
        return _roundrobin_cached(ntasks, nfiles)

    @classmethod
    def custom(cls, file_of_task: list[int]) -> "TaskMapping":
        """Explicit file index per global rank; local ranks follow rank order."""
        if not len(file_of_task):
            raise SionUsageError("custom mapping needs at least one task")
        files = np.asarray(file_of_task, dtype=np.int64)
        if int(files.min()) < 0:
            raise SionUsageError("file indices must be non-negative")
        ntasks = int(files.size)
        nfiles = int(files.max()) + 1
        counts = np.bincount(files, minlength=nfiles)
        if not counts.all():
            missing = np.flatnonzero(counts == 0).tolist()
            raise SionUsageError(f"custom mapping leaves files empty: {missing}")
        return cls(
            ntasks, nfiles, MAPPING_CUSTOM, column(files), column(_local_ranks(files, nfiles))
        )

    @classmethod
    def create(
        cls, ntasks: int, nfiles: int, kind: "str | list[int]" = "blocked"
    ) -> "TaskMapping":
        """Factory from a kind name or an explicit file-per-task list."""
        if isinstance(kind, list):
            m = cls.custom(kind)
            if m.ntasks != ntasks or m.nfiles != nfiles:
                raise SionUsageError(
                    f"custom mapping shape ({m.ntasks} tasks, {m.nfiles} files) "
                    f"does not match requested ({ntasks}, {nfiles})"
                )
            return m
        if kind == "blocked":
            return cls.blocked(ntasks, nfiles)
        if kind == "roundrobin":
            return cls.roundrobin(ntasks, nfiles)
        raise SionUsageError(
            f"unknown mapping kind {kind!r}; use 'blocked', 'roundrobin' or a list"
        )

    @classmethod
    def from_kind_code(
        cls,
        ntasks: int,
        nfiles: int,
        kind_code: int,
        table: "array | None" = None,
    ) -> "TaskMapping":
        """Rebuild from metablock-1 fields (standard kinds need no table).

        ``table`` is a custom mapping's stored ``(file, local rank)``
        pairs, interleaved in one column (:meth:`pairs`).  It is checked,
        not trusted: every file index is in range and every local rank is
        the task's position among its file's tasks (the only table a
        writer stores), else a reader would serve one task's chunks as
        another's.
        """
        if kind_code == MAPPING_BLOCKED:
            return cls.blocked(ntasks, nfiles)
        if kind_code == MAPPING_ROUNDROBIN:
            return cls.roundrobin(ntasks, nfiles)
        if kind_code == MAPPING_CUSTOM:
            if table is None or not len(table):
                raise SionUsageError("custom mapping requires the stored table")
            files, lranks = np.asarray(table, dtype=np.int64).reshape(-1, 2).T
            bad = np.flatnonzero((files < 0) | (files >= nfiles))
            if bad.size:
                r = int(bad[0])
                raise SionUsageError(f"task {r} maps to file {files[r]} of {nfiles}")
            want = _local_ranks(files, nfiles)
            bad = np.flatnonzero(lranks != want)
            if bad.size:
                r = int(bad[0])
                raise SionUsageError(
                    f"task {r} has local rank {lranks[r]} in file {files[r]}, "
                    f"expected {want[r]}"
                )
            return cls(ntasks, nfiles, MAPPING_CUSTOM, column(files), column(lranks))
        raise SionUsageError(f"unknown mapping kind code {kind_code}")

    # -- queries -----------------------------------------------------------------

    def pairs(self) -> array:
        """The ``(file, local rank)`` pairs, interleaved in one column: the
        table metablock 1 stores for a custom mapping."""
        out = np.empty(2 * self.ntasks, dtype=np.int64)
        out[0::2] = ndarray_of(self.files)
        out[1::2] = ndarray_of(self.lranks)
        return column(out)

    def file_of(self, rank: int) -> int:
        """Physical file index holding ``rank``'s chunks."""
        self._check_rank(rank)
        return self.files[rank]

    def local_rank(self, rank: int) -> int:
        """Rank's index within its physical file's chunk array."""
        self._check_rank(rank)
        return self.lranks[rank]

    def tasks_of_file(self, filenum: int) -> array:
        """Global ranks stored in file ``filenum``, in local-rank order.

        A new column, built in O(the file's tasks): a rank range for the
        standard kinds, a slice of :attr:`_members` for a custom mapping.
        """
        lo, hi = self._file_range(filenum)
        if self.kind == MAPPING_BLOCKED:
            return column(np.arange(lo, hi))
        if self.kind == MAPPING_ROUNDROBIN:
            return column(np.arange(filenum, self.ntasks, self.nfiles))
        return self._members[lo:hi]

    # -- internals ----------------------------------------------------------------

    @cached_property
    def _bounds(self) -> array:
        """Each file's run in the ranks grouped by file: ``[bounds[f], bounds[f + 1])``."""
        return bounds_of(np.bincount(ndarray_of(self.files), minlength=self.nfiles))

    @cached_property
    def _members(self) -> array:
        """Every global rank grouped by file (a custom mapping's; built once).

        The sort is stable and local ranks ascend with global rank, so each
        file's run is in local-rank order.
        """
        return column(np.argsort(ndarray_of(self.files), kind="stable"))

    def _file_range(self, filenum: int) -> tuple[int, int]:
        if not 0 <= filenum < self.nfiles:
            raise SionUsageError(f"file {filenum} out of range ({self.nfiles})")
        bounds = self._bounds
        return bounds[filenum], bounds[filenum + 1]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.ntasks:
            raise SionUsageError(f"rank {rank} out of range ({self.ntasks} tasks)")


def _local_ranks(files: np.ndarray, nfiles: int) -> np.ndarray:
    """Each task's position among its file's tasks, in global-rank order."""
    # Group the ranks by file (stable), then number each group from its
    # offset.
    counts = np.bincount(files, minlength=nfiles)
    order = np.argsort(files, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    lranks = np.empty(files.size, dtype=np.int64)
    lranks[order] = np.arange(files.size) - np.repeat(offsets, counts)
    return lranks


@lru_cache(maxsize=128)
def _blocked_cached(ntasks: int, nfiles: int) -> TaskMapping:
    base, extra = divmod(ntasks, nfiles)
    counts = np.full(nfiles, base, dtype=np.int64)
    counts[:extra] += 1
    files = np.repeat(np.arange(nfiles), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    lranks = np.arange(ntasks) - offsets[files]
    return TaskMapping(ntasks, nfiles, MAPPING_BLOCKED, column(files), column(lranks))


@lru_cache(maxsize=128)
def _roundrobin_cached(ntasks: int, nfiles: int) -> TaskMapping:
    ranks = np.arange(ntasks)
    return TaskMapping(
        ntasks, nfiles, MAPPING_ROUNDROBIN, column(ranks % nfiles), column(ranks // nfiles)
    )


@dataclass(frozen=True)
class ReadPartition:
    """Contiguous assignment of ``nwriters`` task streams to ``nreaders``.

    The multifile is a portable container: its metadata lives in the file,
    not in the job, so a reader world of *any* size may come back later.
    A partition gives reader ``r`` the contiguous writer-rank range
    ``[starts[r], starts[r] + counts[r])``; concatenating every reader's
    logical stream in reader order reproduces the writer-order
    concatenation byte for byte.  Like :class:`TaskMapping` the partition
    is two int64 columns built with whole-array operations and the
    balanced kind is cached, so re-deriving the partition of a 256k-stream
    multifile per rank costs microseconds.

    More readers than writers is legal: the surplus readers own empty
    ranges (an oversized analysis job must not crash on a small file).

    :meth:`balanced` raises :class:`~repro.errors.SionUsageError` when
    either count is below one.

    Example::

        part = ReadPartition.balanced(nwriters=4096, nreaders=32)
        part.writers_of(0)      # range(0, 128)
    """

    nwriters: int
    nreaders: int
    starts: array  # reader -> first writer task of its slice
    counts: array  # reader -> number of writer tasks

    @classmethod
    def balanced(cls, nwriters: int, nreaders: int) -> "ReadPartition":
        """Balanced contiguous slices (earlier readers take the remainder)."""
        if nwriters < 1:
            raise SionUsageError(f"nwriters must be >= 1, got {nwriters}")
        if nreaders < 1:
            raise SionUsageError(f"nreaders must be >= 1, got {nreaders}")
        return _balanced_partition_cached(nwriters, nreaders)

    # -- queries -------------------------------------------------------------

    def writers_of(self, reader: int) -> range:
        """Writer global ranks consumed by ``reader``, in stream order."""
        self._check_reader(reader)
        start = self.starts[reader]
        return range(start, start + self.counts[reader])

    # -- internals -----------------------------------------------------------

    def _check_reader(self, reader: int) -> None:
        if not 0 <= reader < self.nreaders:
            raise SionUsageError(
                f"reader {reader} out of range ({self.nreaders} readers)"
            )


@lru_cache(maxsize=128)
def _balanced_partition_cached(nwriters: int, nreaders: int) -> ReadPartition:
    base, extra = divmod(nwriters, nreaders)
    counts = np.full(nreaders, base, dtype=np.int64)
    counts[:extra] += 1
    ends = np.cumsum(counts)
    return ReadPartition(nwriters, nreaders, column(ends - counts), column(counts))


def physical_path(base: str, filenum: int) -> str:
    """Path of physical file ``filenum`` in a multifile set.

    File 0 keeps the user's path; siblings get a numeric suffix
    (``out.sion``, ``out.sion.000001``, ...).
    """
    if filenum < 0:
        raise SionUsageError(f"filenum must be non-negative: {filenum}")
    if filenum == 0:
        return base
    return base + MULTIFILE_SUFFIX.format(filenum)


def _check_counts(ntasks: int, nfiles: int) -> None:
    if ntasks < 1:
        raise SionUsageError(f"ntasks must be >= 1, got {ntasks}")
    if nfiles < 1:
        raise SionUsageError(f"nfiles must be >= 1, got {nfiles}")
    if nfiles > ntasks:
        raise SionUsageError(
            f"cannot use more physical files ({nfiles}) than tasks ({ntasks})"
        )
