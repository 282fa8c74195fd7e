"""Tape-archive model for the paper's file-management motivation (§1).

The paper's second scalability problem is operational: *"copying files to a
tape archive (e.g., during backup) may be significantly slowed down.
Especially when archival requests from different users are executed in an
interleaved fashion, different files of the same directory may end up on
different tapes, making their later retrieval challenging or even
impractical if the tape cartridge must be exchanged too often."*

This model quantifies that claim.  Archiving pays a fixed per-file cost
(catalogue entry, header, stream restart) plus streaming time; interleaved
users scatter a directory's files across tapes, and retrieval pays a mount
+ seek penalty per tape touched, plus a per-file positioning cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ModelUsageError


@dataclass(frozen=True)
class TapeLibrary:
    """One tape archive's cost parameters (HPSS-class defaults)."""

    mount_time_s: float = 90.0  # robot fetch + load + thread
    seek_time_s: float = 40.0  # average position-to-file on a tape
    per_file_overhead_s: float = 0.5  # catalogue + header + stream restart
    stream_bw_mb_s: float = 160.0  # LTO-class streaming rate
    tape_capacity_bytes: float = 800e9

    def __post_init__(self) -> None:
        if min(
            self.mount_time_s,
            self.seek_time_s,
            self.per_file_overhead_s,
            self.stream_bw_mb_s,
            self.tape_capacity_bytes,
        ) <= 0 and self.per_file_overhead_s != 0:
            raise ModelUsageError("tape parameters must be positive")

    # -- archiving -----------------------------------------------------------

    def tapes_needed(self, total_bytes: float) -> int:
        """Minimum cartridges for ``total_bytes``."""
        if total_bytes < 0:
            raise ModelUsageError("negative data size")
        return max(1, math.ceil(total_bytes / self.tape_capacity_bytes))

    def archive_time(self, nfiles: int, total_bytes: float) -> float:
        """Seconds to write ``nfiles`` files of ``total_bytes`` to tape.

        One mount per cartridge, a per-file overhead (the term that
        explodes with 64K task-local files), and streaming.
        """
        if nfiles < 0:
            raise ModelUsageError("negative file count")
        if nfiles == 0:
            return 0.0
        tapes = self.tapes_needed(total_bytes)
        return (
            tapes * self.mount_time_s
            + nfiles * self.per_file_overhead_s
            + (total_bytes / 1e6) / self.stream_bw_mb_s
        )

    # -- retrieval ---------------------------------------------------------------

    def tapes_touched(
        self, nfiles: int, total_bytes: float, interleaved_users: int = 1
    ) -> int:
        """Cartridges a directory's files landed on.

        With a single archival stream, files pack onto the minimum number
        of tapes.  Each additional concurrent user interleaves its own
        data, scattering the directory over up to ``users x`` as many
        cartridges (bounded by the file count — a file is on one tape).
        """
        if interleaved_users < 1:
            raise ModelUsageError("interleaved_users must be >= 1")
        packed = self.tapes_needed(total_bytes)
        return min(max(nfiles, 1), packed * interleaved_users)

    def retrieval_time(
        self, nfiles: int, total_bytes: float, interleaved_users: int = 1
    ) -> float:
        """Seconds to fetch the whole collection back.

        Every touched cartridge costs a mount + seek; every file costs a
        positioning overhead; the data streams at tape speed.
        """
        if nfiles == 0:
            return 0.0
        tapes = self.tapes_touched(nfiles, total_bytes, interleaved_users)
        return (
            tapes * (self.mount_time_s + self.seek_time_s)
            + nfiles * self.per_file_overhead_s
            + (total_bytes / 1e6) / self.stream_bw_mb_s
        )


@dataclass
class ArchiveComparison:
    """Task-local files vs. multifile, through the same tape library."""

    ntasks: int
    total_bytes: float
    nfiles_multifile: int
    interleaved_users: int
    tasklocal_archive_s: float
    multifile_archive_s: float
    tasklocal_retrieve_s: float
    multifile_retrieve_s: float

    @property
    def archive_speedup(self) -> float:
        return self.tasklocal_archive_s / self.multifile_archive_s

    @property
    def retrieve_speedup(self) -> float:
        return self.tasklocal_retrieve_s / self.multifile_retrieve_s


def compare_archival(
    library: TapeLibrary,
    ntasks: int,
    total_bytes: float,
    nfiles_multifile: int = 1,
    interleaved_users: int = 4,
) -> ArchiveComparison:
    """Price the paper's §1 scenario both ways."""
    return ArchiveComparison(
        ntasks=ntasks,
        total_bytes=total_bytes,
        nfiles_multifile=nfiles_multifile,
        interleaved_users=interleaved_users,
        tasklocal_archive_s=library.archive_time(ntasks, total_bytes),
        multifile_archive_s=library.archive_time(nfiles_multifile, total_bytes),
        tasklocal_retrieve_s=library.retrieval_time(
            ntasks, total_bytes, interleaved_users
        ),
        multifile_retrieve_s=library.retrieval_time(
            nfiles_multifile, total_bytes, interleaved_users
        ),
    )
