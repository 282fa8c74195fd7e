"""Fig. 4 — bandwidth as a function of the number of physical files.

Jugene (Fig. 4a): 64K tasks write/read 1 TB through 1..128 physical files;
the per-file GPFS token path caps a single file well below the backplane,
so spreading over ~8-32 files saturates the ~6 GB/s scratch file system,
with a mild decline at very large file counts from token traffic.

Jaguar (Fig. 4b): 2K tasks move 1 TB under two striping configurations —
the default (4 OSTs, 1 MB stripes) and an optimized one (64 OSTs, 8 MB) —
showing that striping choice matters as much as file count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.striping import StripingPolicy
from repro.fs.systems import SystemProfile
from repro.workloads.common import parallel_io

TB = 10**12

#: Paper sweep points.
JUGENE_NFILES = [1, 2, 4, 8, 16, 32, 64, 128]
JAGUAR_NFILES = [1, 2, 4, 8, 16, 32, 64]

JUGENE_NTASKS = 65536
JAGUAR_NTASKS = 2048


@dataclass
class NfilesPoint:
    """One x-position of Fig. 4."""

    nfiles: int
    write_mb_s: float
    read_mb_s: float


def sweep_nfiles(
    profile: SystemProfile,
    ntasks: int,
    total_bytes: float,
    nfiles_list: list[int],
    striping: StripingPolicy | None = None,
) -> list[NfilesPoint]:
    """Write/read bandwidth over a sweep of physical-file counts.

    Placement is deterministic on both file systems (round-robin OSTs on
    Lustre), so each point is one run per op.
    """
    return [
        NfilesPoint(
            nfiles=nf,
            write_mb_s=parallel_io(
                profile, ntasks, total_bytes, "write", nfiles=nf, striping=striping
            ).bandwidth_mb_s,
            read_mb_s=parallel_io(
                profile, ntasks, total_bytes, "read", nfiles=nf, striping=striping
            ).bandwidth_mb_s,
        )
        for nf in nfiles_list
    ]


def run_fig4a(profile: SystemProfile) -> list[NfilesPoint]:
    """Jugene: 64K tasks, 1 TB, 1-128 physical files."""
    return sweep_nfiles(profile, JUGENE_NTASKS, 1 * TB, JUGENE_NFILES)


@dataclass
class Fig4bResult:
    """Jaguar sweep under both striping configurations."""

    default: list[NfilesPoint]
    optimized: list[NfilesPoint]


def run_fig4b(profile: SystemProfile) -> Fig4bResult:
    """Jaguar: 2K tasks, 1 TB, default vs. optimized striping."""
    default = sweep_nfiles(
        profile, JAGUAR_NTASKS, 1 * TB, JAGUAR_NFILES, striping=profile.default_striping
    )
    assert profile.optimized_striping is not None
    optimized = sweep_nfiles(
        profile,
        JAGUAR_NTASKS,
        1 * TB,
        JAGUAR_NFILES,
        striping=profile.optimized_striping,
    )
    return Fig4bResult(default=default, optimized=optimized)
