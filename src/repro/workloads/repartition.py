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

Two layers, like the rest of :mod:`repro.workloads`:

* :func:`run_restart_analysis` — the *model*: prices the checkpoint
  write (n writers) and the analysis read (m readers) on a machine
  profile through the shared fluid-flow simulation, so the m/n tradeoff
  (fewer readers mean fewer clients pulling, but also less aggregate
  client bandwidth) can be swept without touching a byte.
* :func:`repartition_roundtrip` — the *driver*: executes the same shape
  against the real library over a storage backend (thread or bulk engine),
  verifying byte identity inside each reader rank.  The ``repartition``
  benchmark suite wraps this with a counting backend to pin the O(m)
  physical-call claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.backends.base import Backend
from repro.errors import ReproError
from repro.fs.systems import SystemProfile
from repro.sion.mapping import ReadPartition
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

    @property
    def read_fanin(self) -> float:
        """Writer streams each analysis rank multiplexes (n/m)."""
        return self.nwriters / self.nreaders


def run_restart_analysis(
    profile: SystemProfile,
    nwriters: int,
    nreaders: int,
    bytes_per_writer: float,
    nfiles: int = 16,
    use_cache: bool = False,
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
    read = parallel_io(
        profile, nreaders, data, op="read", nfiles=min(nfiles, nreaders),
        use_cache=use_cache,
    )
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


@dataclass
class RepartitionRoundtrip:
    """Outcome of one real-library write-n/read-m cycle (verified)."""

    nwriters: int
    nreaders: int
    nfiles: int
    bytes_total: int
    reader_bytes: list[int]

    @property
    def read_fanin(self) -> float:
        return self.nwriters / self.nreaders


def repartition_roundtrip(
    backend: Backend,
    nwriters: int,
    nreaders: int,
    payload_of: Callable[[int], bytes],
    *,
    chunksize: int,
    fsblksize: int | None = None,
    nfiles: int = 1,
    mapping: "str | list[int]" = "blocked",
    engine: str = "threads",
    write_collectors: int | None = None,
    read_collectsize: int | None = None,
    path: str = "/repartition.sion",
) -> RepartitionRoundtrip:
    """Write a checkpoint with ``nwriters`` tasks, read it with ``nreaders``.

    Byte identity is verified *inside* each reader rank (against the
    deterministic ``payload_of`` schedule), so a 64k-stream cycle never
    ships its full contents back to the driver.  Raises
    :class:`~repro.errors.ReproError` on any divergence.
    """
    from repro.sion import paropen
    from repro.simmpi import run_spmd

    def write_task(comm):
        f = paropen(
            path, "w", comm, chunksize=chunksize, fsblksize=fsblksize,
            nfiles=nfiles, mapping=mapping, backend=backend,
            collectors=write_collectors,
        )
        f.fwrite(payload_of(comm.rank))
        f.parclose()

    run_spmd(nwriters, write_task, engine=engine)

    partition = ReadPartition.balanced(nwriters, nreaders)

    def read_task(comm):
        f = paropen(
            path, "r", comm, backend=backend, partitioned=True,
            collectsize=read_collectsize,
        )
        data = f.read_all()
        f.parclose()
        expected = b"".join(
            payload_of(w) for w in partition.writers_of(comm.rank)
        )
        if data != expected:
            raise ReproError(
                f"reader {comm.rank} of {nreaders} diverged: got "
                f"{len(data)} bytes, expected {len(expected)}"
            )
        return len(data)

    reader_bytes = run_spmd(nreaders, read_task, engine=engine)
    return RepartitionRoundtrip(
        nwriters=nwriters,
        nreaders=nreaders,
        nfiles=nfiles,
        bytes_total=sum(reader_bytes),
        reader_bytes=list(reader_bytes),
    )
