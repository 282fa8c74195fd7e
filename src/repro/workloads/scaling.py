"""Weak-scaling complements to Fig. 6 and §5.2.

Fig. 6 fixes 1000 cores and sweeps the problem size.  Production runs grow
both together — weak scaling — and that is where the single-file baseline
truly collapses: its time grows with the *total* data while SION's stays
bounded by the saturating file-system bandwidth.

The second scenario prices the trace-analysis *load* phase (paper §5.2,
Fig. 7): the parallel analyzer opening every task's trace postmortem.
With physical task-local files that is Fig. 3's "open existing" cost; with
a multifile it is the library's own read-mode open → close, priced as
Fig. 3 prices its create.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.mp2c.particles import RECORD_BYTES
from repro.fs.systems import SystemProfile
from repro.workloads.filecreate import sion_open_time, tasklocal_metadata_time
from repro.workloads.mp2c_io import single_file_time, sion_restart_time

#: Particles each task owns in the weak-scaling sweep (fills a domain).
PARTICLES_PER_TASK = 100_000


@dataclass
class WeakScalingPoint:
    """Checkpoint time at one task count, particles/task held fixed."""

    ntasks: int
    data_bytes: float
    sion_write_s: float
    single_write_s: float

    @property
    def speedup(self) -> float:
        return self.single_write_s / self.sion_write_s


def mp2c_weak_scaling(
    profile: SystemProfile,
    task_counts: list[int],
    particles_per_task: int = PARTICLES_PER_TASK,
    nfiles: int = 16,
) -> list[WeakScalingPoint]:
    """Checkpoint cost as the job grows with its machine."""
    out = []
    for n in task_counts:
        data = float(n * particles_per_task * RECORD_BYTES)
        out.append(
            WeakScalingPoint(
                ntasks=n,
                data_bytes=data,
                sion_write_s=sion_restart_time(
                    profile, n, data, "write", nfiles=min(nfiles, n)
                ),
                single_write_s=single_file_time(data, "write"),
            )
        )
    return out


@dataclass
class AnalyzerLoadPoint:
    """Trace-load (open) cost for the parallel analyzer at one scale."""

    ntasks: int
    tasklocal_open_s: float
    sion_open_s: float

    @property
    def speedup(self) -> float:
        return self.tasklocal_open_s / self.sion_open_s


def analyzer_load_times(
    profile: SystemProfile, task_counts: list[int], nfiles: int = 16
) -> list[AnalyzerLoadPoint]:
    """Opening N existing traces (Fig. 3's 'open existing') vs. a multifile.

    The paper: open durations "can accumulate to a substantial overhead,
    if the same collection of task-local files is periodically opened" —
    the trace analyzer does exactly one such pass per analysis.
    """
    out = []
    for n in task_counts:
        tasklocal = tasklocal_metadata_time(profile, n, "open")
        sion = sion_open_time(profile, n, min(nfiles, n), "r")
        out.append(AnalyzerLoadPoint(ntasks=n, tasklocal_open_s=tasklocal, sion_open_s=sion))
    return out
