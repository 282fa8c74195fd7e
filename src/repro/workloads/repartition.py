"""Re-partitioned restart/analysis workload: write with n, analyze with m.

The paper's operational scenario made concrete: a production job
checkpoints with every one of its ``n`` tasks (the multifile absorbs the
file-count pressure), and a later *analysis* job — a visualization
pipeline, a postmortem debugger, a restart onto a smaller partition —
comes back with ``m`` ranks.  Because the multifile records its own
metadata, the analysis world never has to match the writer world: each
reader takes a contiguous slice of the recorded task streams
(:class:`~repro.sion.mapping.ReadPartition`) and the bytes are identical
to what an ``n``-rank read would have seen.

This module is the *model*: :func:`run_restart_analysis` prices the
checkpoint write (n writers) and the analysis read (m readers) on a
machine profile through the shared fluid-flow simulation, so the m/n
tradeoff (fewer readers mean fewer clients pulling, but also less
aggregate client bandwidth) can be swept without touching a byte.  The
same shape against the real library — byte identity checked inside each
reader rank, physical calls pinned at O(m) — is the ``repartition``
benchmark suite, over :func:`repro.bench.scaffold.write_cycle` /
:func:`~repro.bench.scaffold.read_cycle`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.fs.systems import SystemProfile
from repro.workloads.common import IOResult, parallel_io


@dataclass
class RestartAnalysisResult:
    """Modelled cost of one checkpoint/analysis cycle."""

    nwriters: int
    nreaders: int
    nfiles: int
    data_bytes: float
    write: IOResult
    read: IOResult

    @property
    def cycle_time_s(self) -> float:
        """Checkpoint write plus analysis read, end to end."""
        return self.write.time_s + self.read.time_s


def run_restart_analysis(
    profile: SystemProfile,
    nwriters: int,
    nreaders: int,
    bytes_per_writer: float,
    nfiles: int = 16,
) -> RestartAnalysisResult:
    """Price one write-with-n / analyze-with-m cycle on ``profile``.

    The read moves the *same* total bytes as the write — every recorded
    stream is consumed — but through ``m`` clients instead of ``n``,
    over the same ``nfiles`` physical files.
    """
    if nwriters < 1 or nreaders < 1:
        raise ReproError("need >= 1 writer and >= 1 reader")
    data = float(nwriters) * float(bytes_per_writer)
    # The physical file count is fixed at checkpoint time by the writer
    # world; the analysis job merely consumes it (a tiny reader world
    # spreads over at most nreaders of the files at once, which is the
    # flow model's nfiles <= ntasks constraint on the read leg only).
    nfiles = min(nfiles, nwriters)
    write = parallel_io(profile, nwriters, data, op="write", nfiles=nfiles)
    read = parallel_io(profile, nreaders, data, op="read", nfiles=min(nfiles, nreaders))
    return RestartAnalysisResult(
        nwriters=nwriters,
        nreaders=nreaders,
        nfiles=nfiles,
        data_bytes=data,
        write=write,
        read=read,
    )


def sweep_reader_counts(
    profile: SystemProfile,
    nwriters: int,
    reader_counts: list[int],
    bytes_per_writer: float,
    nfiles: int = 16,
) -> list[RestartAnalysisResult]:
    """The m-axis sweep: how small may the analysis job shrink before
    the read starves for client bandwidth?"""
    return [
        run_restart_analysis(profile, nwriters, m, bytes_per_writer, nfiles)
        for m in reader_counts
    ]
