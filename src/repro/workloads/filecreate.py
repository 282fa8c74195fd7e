"""Fig. 3 — parallel creation/opening of task-local files vs. SION.

The task-local curves come from the FIFO loop of the metadata service
(:func:`repro.fs.metadata.fifo_finish_times`): ``N`` clients each issue
one ``create`` (or ``open``) against the shared directory at t=0 and the
makespan is the completion of the last one.  The SION curve prices what
the library itself does: one real ``paropen`` → ``parclose`` runs on the
bulk engine over a SimFS, and :func:`open_trace_time` prices the ops it
issued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.backends.simfs_backend import SimBackend
from repro.errors import ModelFailureError, ReproError
from repro.fs.metadata import fifo_finish_times
from repro.fs.simfs import SimFS
from repro.fs.systems import SystemProfile
from repro.simmpi import run_spmd
from repro.sion import paropen

#: Paper sweep points (Fig. 3a and 3b).
JUGENE_TASK_COUNTS = [4096, 8192, 16384, 32768, 65536]
JAGUAR_TASK_COUNTS = [256, 1024, 2048, 4096, 8192, 12288]


@dataclass
class CreateResult:
    """Timing of one file-creation scenario."""

    ntasks: int
    create_files_s: float
    open_existing_s: float
    sion_create_s: float

    @property
    def create_speedup(self) -> float:
        """How much faster SION multifile creation is than N creates."""
        return self.create_files_s / self.sion_create_s


def tasklocal_metadata_time(
    profile: SystemProfile, ntasks: int, kind: str = "create"
) -> float:
    """Makespan of ``ntasks`` simultaneous metadata ops in one directory."""
    if ntasks < 0:
        raise ReproError("ntasks must be non-negative")
    # Opening *existing* files: the directory already holds them.
    entries = ntasks if kind == "open" else 0
    done = fifo_finish_times([kind] * ntasks, profile.metadata_costs, entries)
    return max(done, default=0.0)


@dataclass(frozen=True)
class OpenTrace:
    """The file-system ops and collective waves of one open → close cycle."""

    ntasks: int
    mode: str  # "w" | "r"
    files: int  # physical files of the set
    creates: int
    opens: int
    write_bytes: int
    read_bytes: int
    waves: tuple[tuple[int, str], ...]  # sorted (world size, collective)


@lru_cache(maxsize=None)
def sion_open_trace(ntasks: int, nfiles: int = 1, mode: str = "w") -> OpenTrace:
    """Op counts and collective waves of one real ``paropen`` → ``parclose``.

    The cycle runs on the bulk engine over a fresh SimFS; ``"r"`` writes
    the set first, untraced.  Each point is traced once per process.
    """
    fs = SimFS()
    backend = SimBackend(fs)

    def cycle(comm, mode):
        geometry = {"chunksize": 1, "nfiles": nfiles} if mode == "w" else {}
        paropen("/data.sion", mode, comm, backend=backend, **geometry).parclose()

    if mode == "r":
        run_spmd(ntasks, cycle, "w", engine="bulk")
    before = dict(fs.op_counts)
    stats: dict = {}
    run_spmd(ntasks, cycle, mode, engine="bulk", engine_stats=stats)
    if stats["waves_dropped"]:
        raise ModelFailureError(f"the {ntasks}-task open trace lost {stats['waves_dropped']} waves")
    keys = ("create", "open", "write_bytes", "read_bytes")
    counts = [fs.op_counts.get(k, 0) - before.get(k, 0) for k in keys]
    waves = tuple(sorted((size, kind) for size, kind, _, _ in stats["waves"]))
    return OpenTrace(ntasks, mode, len(fs._files), *counts, waves)


def open_trace_time(profile: SystemProfile, trace: OpenTrace) -> float:
    """Seconds ``profile`` takes for ``trace``, by :func:`sion_open_time`'s rule."""
    kind = "create" if trace.mode == "w" else "open"
    first = tasklocal_metadata_time(profile, trace.files, kind)
    grants = (trace.creates + trace.opens - trace.files) * profile.shared_open_time
    hops = sum(math.ceil(math.log2(size)) * size for size, _ in trace.waves)
    waves = hops / trace.ntasks * profile.collective_latency
    bw = profile.per_file_bw
    data = (trace.write_bytes / bw("write") + trace.read_bytes / bw("read")) / 1e6
    return first + grants + waves + data


def sion_open_time(
    profile: SystemProfile, ntasks: int, nfiles: int = 1, mode: str = "w"
) -> float:
    """Seconds of one collective open → close (``"w"`` creates the set).

    The one SION open cost of every figure, priced from the cycle's
    :func:`sion_open_trace`: the first op on each physical file (a create
    for ``"w"``, an open for ``"r"``) goes through the directory's FIFO
    loop (:func:`tasklocal_metadata_time`); every other open is one serialized
    ``shared_open_time`` grant; a collective wave of size ``s`` costs
    ``ceil(log2 s)`` hops of ``collective_latency`` weighted by
    ``s / ntasks``, so side-by-side sub-worlds count as one chain; the
    bytes the open and close move go at ``per_file_bw``; closes are free.
    """
    return open_trace_time(profile, sion_open_trace(ntasks, nfiles, mode))


def run_fig3(
    profile: SystemProfile,
    task_counts: list[int],
    sion_nfiles: int = 1,
) -> list[CreateResult]:
    """Produce the three curves of Fig. 3 for one machine."""
    return [
        CreateResult(
            ntasks=n,
            create_files_s=tasklocal_metadata_time(profile, n, "create"),
            open_existing_s=tasklocal_metadata_time(profile, n, "open"),
            sion_create_s=sion_open_time(profile, n, sion_nfiles),
        )
        for n in task_counts
    ]
