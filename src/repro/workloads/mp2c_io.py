"""Fig. 6 — MP2C restart-file I/O: single-file-sequential vs. SION.

1000 cores of Jugene, 52 bytes per particle, one underlying physical file
(as in the paper's measurement).  The baseline is MP2C's original path: a
designated I/O task alternates gathering a bounded slab from the others
with writing it out — serialized, and throttled by what one slow compute
core can marshal.  SION writes all task chunks concurrently, but pays a
floor of one file-system block per task (the paper's explanation for why
its advantage "materializes only for larger problem sizes").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.mp2c.particles import RECORD_BYTES
from repro.fs.systems import SystemProfile
from repro.workloads.common import MB, parallel_io
from repro.workloads.filecreate import sion_open_time

#: Paper scenario: one rack of Jugene in SMP mode.
NTASKS = 1000

#: Effective gather throughput into the designated I/O task (MB/s).
#: Calibrated to the measured baseline: a 850 MHz PowerPC core packing
#: and unpacking slabs sustains a few tens of MB/s.
GATHER_BW = 40.0

#: Effective serial write/read throughput of the designated task (MB/s).
SINGLE_STREAM_BW = 40.0

#: Particle counts swept in Fig. 6 (millions).
PARTICLE_SWEEP_M = [1, 3.3, 10, 33, 100, 330, 1000]


@dataclass
class MP2CPoint:
    """One x-position of Fig. 6: four curves (times in seconds)."""

    particles_m: float
    data_mb: float
    sion_write_s: float
    sion_read_s: float
    single_write_s: float
    single_read_s: float

    @property
    def write_speedup(self) -> float:
        """Baseline/SION write time."""
        return self.single_write_s / self.sion_write_s

    @property
    def read_speedup(self) -> float:
        """Baseline/SION read time."""
        return self.single_read_s / self.sion_read_s


def single_file_time(data_bytes: float, op: str) -> float:
    """Single-file-sequential restart time.

    Gather (or scatter) and serial file I/O alternate without overlap —
    "serialized I/O in combination with alternating gather and write
    operations" (paper §5.1) — so the costs add.
    """
    mb = data_bytes / MB
    return mb / GATHER_BW + mb / SINGLE_STREAM_BW


def sion_restart_time(
    profile: SystemProfile,
    ntasks: int,
    data_bytes: float,
    op: str,
    nfiles: int = 1,
) -> float:
    """SION restart time: collective open/close plus the aligned transfer.

    Every task occupies at least one file-system block, so small restarts
    still move ``ntasks * fsblksize`` bytes — the flat left side of the
    SION curves.
    """
    floor_bytes = ntasks * profile.fs_block_size
    effective = max(data_bytes, float(floor_bytes))
    transfer = parallel_io(profile, ntasks, effective, op, nfiles=nfiles)
    return sion_open_time(profile, ntasks, nfiles, "w" if op == "write" else "r") + transfer.time_s


def run_fig6(
    profile: SystemProfile,
    particle_sweep_m: list[float] | None = None,
    ntasks: int = NTASKS,
) -> list[MP2CPoint]:
    """Reproduce Fig. 6's four curves on ``profile`` (the paper: Jugene)."""
    sweep = particle_sweep_m if particle_sweep_m is not None else PARTICLE_SWEEP_M
    out = []
    for pm in sweep:
        data = pm * 1e6 * RECORD_BYTES
        out.append(
            MP2CPoint(
                particles_m=pm,
                data_mb=data / MB,
                sion_write_s=sion_restart_time(profile, ntasks, data, "write"),
                sion_read_s=sion_restart_time(profile, ntasks, data, "read"),
                single_write_s=single_file_time(data, "write"),
                single_read_s=single_file_time(data, "read"),
            )
        )
    return out


def crossover_particles_m(points: list[MP2CPoint]) -> float | None:
    """Smallest swept particle count where SION's write beats the baseline."""
    for p in points:
        if p.sion_write_s < p.single_write_s:
            return p.particles_m
    return None
