"""Task-to-physical-file mapping (paper §3.1, Fig. 2d).

A multifile may be backed by several physical files; every task lives in
exactly one.  The default *blocked* mapping keeps ranks contiguous (e.g.
one physical file per Blue Gene I/O node, as the paper suggests); a
*round-robin* mapping interleaves, and a *custom* mapping accepts an
explicit rank -> file table.

The assignment is stored as two flat per-rank arrays (``files`` and
``lranks``) built with whole-array operations, so constructing or
reconstructing the mapping of a 256k-task world costs milliseconds rather
than the seconds the former tuple-of-pairs table needed.  The standard
kinds are cached: in an in-process SPMD world every rank asks for the same
mapping, and recomputing it per rank made the collective open O(n²).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.errors import SionUsageError
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
    rank's index within that file's chunk array.
    """

    ntasks: int
    nfiles: int
    kind: int
    files: tuple[int, ...]  # global rank -> file
    lranks: tuple[int, ...]  # global rank -> local rank

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
        # Local ranks follow global-rank order within each file: group the
        # ranks by file (stable), then number each group from its offset.
        order = np.argsort(files, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        lranks = np.empty(ntasks, dtype=np.int64)
        lranks[order] = np.arange(ntasks) - np.repeat(offsets, counts)
        return cls(
            ntasks,
            nfiles,
            MAPPING_CUSTOM,
            tuple(files.tolist()),
            tuple(lranks.tolist()),
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
        table: list[tuple[int, int]] | None = None,
    ) -> "TaskMapping":
        """Rebuild from metablock-1 fields (standard kinds need no table)."""
        if kind_code == MAPPING_BLOCKED:
            return cls.blocked(ntasks, nfiles)
        if kind_code == MAPPING_ROUNDROBIN:
            return cls.roundrobin(ntasks, nfiles)
        if kind_code == MAPPING_CUSTOM:
            if not table:
                raise SionUsageError("custom mapping requires the stored table")
            files, lranks = zip(*table)
            return cls(ntasks, nfiles, MAPPING_CUSTOM, tuple(files), tuple(lranks))
        raise SionUsageError(f"unknown mapping kind code {kind_code}")

    # -- queries -----------------------------------------------------------------

    @cached_property
    def table(self) -> tuple[tuple[int, int], ...]:
        """Global rank -> ``(file, local rank)`` pairs (compatibility view)."""
        return tuple(zip(self.files, self.lranks))

    def table_pairs(self) -> list[tuple[int, int]]:
        """The mapping table as the list of pairs metablock 1 encodes."""
        return list(self.table)

    def file_of(self, rank: int) -> int:
        """Physical file index holding ``rank``'s chunks."""
        self._check_rank(rank)
        return self.files[rank]

    def local_rank(self, rank: int) -> int:
        """Rank's index within its physical file's chunk array."""
        self._check_rank(rank)
        return self.lranks[rank]

    def tasks_of_file(self, filenum: int) -> list[int]:
        """Global ranks stored in file ``filenum``, in local-rank order."""
        if not 0 <= filenum < self.nfiles:
            raise SionUsageError(f"file {filenum} out of range ({self.nfiles})")
        # Ranks ascend with local rank by construction, so the positional
        # scan is already local-rank ordered.
        return np.flatnonzero(self._files_array == filenum).tolist()

    def ntasks_of_file(self, filenum: int) -> int:
        """Number of tasks mapped to ``filenum``."""
        return len(self.tasks_of_file(filenum))

    # -- internals ----------------------------------------------------------------

    @cached_property
    def _files_array(self) -> np.ndarray:
        return np.asarray(self.files, dtype=np.int64)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.ntasks:
            raise SionUsageError(f"rank {rank} out of range ({self.ntasks} tasks)")


@lru_cache(maxsize=128)
def _blocked_cached(ntasks: int, nfiles: int) -> TaskMapping:
    base, extra = divmod(ntasks, nfiles)
    counts = np.full(nfiles, base, dtype=np.int64)
    counts[:extra] += 1
    files = np.repeat(np.arange(nfiles), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    lranks = np.arange(ntasks) - offsets[files]
    return TaskMapping(
        ntasks,
        nfiles,
        MAPPING_BLOCKED,
        tuple(files.tolist()),
        tuple(lranks.tolist()),
    )


@lru_cache(maxsize=128)
def _roundrobin_cached(ntasks: int, nfiles: int) -> TaskMapping:
    ranks = np.arange(ntasks)
    return TaskMapping(
        ntasks,
        nfiles,
        MAPPING_ROUNDROBIN,
        tuple((ranks % nfiles).tolist()),
        tuple((ranks // nfiles).tolist()),
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
    is stored as flat per-reader arrays built with whole-array operations
    and the balanced kind is cached, so re-deriving the partition of a
    256k-stream multifile per rank costs microseconds.

    More readers than writers is legal: the surplus readers own empty
    ranges (an oversized analysis job must not crash on a small file).

    :meth:`balanced` raises :class:`~repro.errors.SionUsageError` when
    either count is below one.

    Example::

        part = ReadPartition.balanced(nwriters=4096, nreaders=32)
        part.writers_of(0)      # range(0, 128)
        part.reader_of(4095)    # 31
    """

    nwriters: int
    nreaders: int
    starts: tuple[int, ...]  # reader -> first writer task of its slice
    counts: tuple[int, ...]  # reader -> number of writer tasks

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

    def reader_of(self, writer: int) -> int:
        """The reader whose slice contains writer task ``writer``."""
        if not 0 <= writer < self.nwriters:
            raise SionUsageError(
                f"writer {writer} out of range ({self.nwriters} writers)"
            )
        return int(
            np.searchsorted(self._starts_array, writer, side="right") - 1
        )

    # -- internals -----------------------------------------------------------

    @cached_property
    def _starts_array(self) -> np.ndarray:
        return np.asarray(self.starts, dtype=np.int64)

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
    starts = ends - counts
    return ReadPartition(
        nwriters,
        nreaders,
        tuple(starts.tolist()),
        tuple(counts.tolist()),
    )


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
