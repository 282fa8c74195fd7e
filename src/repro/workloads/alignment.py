"""Table 1 — file-system block alignment vs. false sharing.

32K tasks write/read 256 GB through 16 physical files on Jugene.  With
SIONlib configured at the true 2 MB GPFS block size, chunks are perfectly
aligned; configured at 16 KB, up to 128 tasks' chunks share each 2 MB
block and every write forces a token revocation.  The paper measured a
2.53x write and 1.78x read penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.systems import SystemProfile
from repro.workloads.common import parallel_io

GB = 10**9

#: Paper scenario parameters (Table 1).
NTASKS = 32768
NFILES = 16
DATA_BYTES = 256 * GB
ALIGNED_BLKSIZE = 2 * (1 << 20)
UNALIGNED_BLKSIZE = 16 * 1024


@dataclass
class AlignmentRow:
    """One row of Table 1."""

    ntasks: int
    data_bytes: int
    blksize: int
    write_mb_s: float
    read_mb_s: float


@dataclass
class AlignmentResult:
    """Both rows plus the penalty factors the paper reports."""

    aligned: AlignmentRow
    unaligned: AlignmentRow

    @property
    def write_factor(self) -> float:
        """Aligned/unaligned write bandwidth (paper: 2.53x)."""
        return self.aligned.write_mb_s / self.unaligned.write_mb_s

    @property
    def read_factor(self) -> float:
        """Aligned/unaligned read bandwidth (paper: 1.78x)."""
        return self.aligned.read_mb_s / self.unaligned.read_mb_s


def run_table1(
    profile: SystemProfile,
    ntasks: int = NTASKS,
    nfiles: int = NFILES,
    data_bytes: int = DATA_BYTES,
    aligned: int = ALIGNED_BLKSIZE,
    unaligned: int = UNALIGNED_BLKSIZE,
) -> AlignmentResult:
    """Reproduce Table 1 on ``profile`` (the paper used Jugene)."""
    hi, lo = alignment_sweep(profile, [aligned, unaligned], ntasks, nfiles, data_bytes)
    return AlignmentResult(aligned=hi, unaligned=lo)


def alignment_sweep(
    profile: SystemProfile,
    blk_sizes: list[int],
    ntasks: int = NTASKS,
    nfiles: int = NFILES,
    data_bytes: int = DATA_BYTES,
) -> list[AlignmentRow]:
    """One row per configured block size (Table 1 is the sweep over two)."""
    return [
        AlignmentRow(
            ntasks=ntasks,
            data_bytes=data_bytes,
            blksize=blk,
            write_mb_s=parallel_io(
                profile, ntasks, data_bytes, "write", nfiles=nfiles, chunk_align_bytes=blk
            ).bandwidth_mb_s,
            read_mb_s=parallel_io(
                profile, ntasks, data_bytes, "read", nfiles=nfiles, chunk_align_bytes=blk
            ).bandwidth_mb_s,
        )
        for blk in blk_sizes
    ]
