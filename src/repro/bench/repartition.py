"""``repartition`` suite: m readers over an n-writer multifile.

ISSUE 5's data-plane claim: the multifile is a portable container, so an
analysis world of *any* size m can read back an n-writer checkpoint —
byte-identically, with physical read calls scaling with the **readers**
(each reader issues one vectored ``gather_read`` per touched physical
file), not with the recorded task streams.  These scenarios drive the
real library over the simulated store with a
:class:`~repro.backends.instrument.CountingBackend` and pin the call
counts from first principles (direct-mode handles are replay-guarded,
so the counts are exact on the bulk engine too).  Wall clock is reported,
never compared; the committed baseline gates the one family with
numbers a pin cannot state — the modelled cycle's simulated seconds:

* ``repartition/read[nwriters=N]`` — an N-task bulk-engine checkpoint
  read back by 32 readers, every byte verified in-rank; read calls
  pinned at ``32 + 8·nfiles``.  The 64k point is the acceptance
  workload (write with 64k tasks, analyze with 32).
* ``repartition/reader-sweep[nwriters=4096]`` — the m-axis: the same
  multifile consumed by 8/32/256 readers, read calls pinned at
  ``m + 8`` each — O(m), measured, not asserted-by-construction.
* ``repartition/prefetch[nwriters=4096]`` — collective-prefetch
  partitioned read: 256 readers through 32 collector groups, read
  calls pinned at ``32 + 8``.
* ``repartition/restart-analysis-model[system=jugene]`` — the modelled
  checkpoint/analysis cycle (:mod:`repro.workloads.repartition`) over
  the m-sweep: deterministic simulated seconds, gate-tight.

The 4k/16k points carry the ``ci-grid`` tag and run on every push; 64k
runs in the nightly workflow.
"""

from __future__ import annotations

import time

from repro.bench.registry import scenario
from repro.bench.results import Metric, ScenarioOutput
from repro.bench.scaffold import (
    CHUNKSIZE,
    CI_GRID_COUNTS,
    FSBLK,
    PAYLOAD,
    KiB,
    check,
    counting_backend,
    grid_tags,
    host_clock,
    payload,
    pin,
    write_cycle,
)
from repro.bench.scale import expected_geometry

#: Writer counts of the full grid; the first two form the CI grid.
REPARTITION_WRITER_COUNTS = (4096, 16384, 65536)

#: The acceptance shape: however many tasks wrote, 32 readers analyze.
NREADERS = 32

#: Fixed metadata read calls of a partitioned open: rank 0's set load
#: decodes mb1 + mb2 of each physical file once (8 positioned reads).
def metadata_reads(nfiles: int) -> int:
    return 8 * nfiles


def _partitioned_read_cycle(
    backend, nwriters, nreaders, engine, *, collectsize=None,
    payload_bytes=PAYLOAD, path="/repart.sion",
):
    """Partitioned read-back with in-rank byte verification; returns wall."""
    from repro.simmpi import run_spmd
    from repro.sion import paropen
    from repro.sion.mapping import ReadPartition

    part = ReadPartition.balanced(nwriters, nreaders)

    def program(comm):
        f = paropen(
            path, "r", comm, backend=backend, partitioned=True,
            collectsize=collectsize,
        )
        data = f.read_all()
        f.parclose()
        expected = b"".join(
            payload(w, payload_bytes) for w in part.writers_of(comm.rank)
        )
        if data != expected:
            raise AssertionError(
                f"reader {comm.rank}/{nreaders} diverged "
                f"({len(data)} vs {len(expected)} bytes)"
            )
        return len(data)

    t0 = time.perf_counter()
    out = run_spmd(nreaders, program, engine=engine)
    wall = time.perf_counter() - t0
    if sum(out) != nwriters * payload_bytes:
        raise AssertionError(f"readers consumed {sum(out)} bytes in total")
    return wall


# --------------------------------------------------------------------------
# The acceptance workload: n bulk-engine writers, 32 readers.


def _read_grid_point(ctx) -> ScenarioOutput:
    p = ctx.params
    nwriters, nreaders = p["nwriters"], p["nreaders"]
    backend = counting_backend()
    write_wall, geom = write_cycle(
        backend, nwriters, p["engine"], path="/repart.sion"
    )
    pin(geom, expected_geometry(nwriters, CHUNKSIZE, FSBLK), "on-disk geometry")
    before = backend.snapshot()
    read_wall = _partitioned_read_cycle(backend, nwriters, nreaders, p["engine"])
    snap = backend.snapshot()
    read_calls = snap["data_read_calls"] - before["data_read_calls"]
    # One vectored gather_read per reader plus the fixed metadata loads —
    # O(m) however many writer streams the multifile records.
    pin(backend.calls().get("gather_read", 0), nreaders, "reader gather_reads")
    pin(read_calls, nreaders + metadata_reads(1), "total backend read calls")
    fanin = nwriters // nreaders
    metrics = {
        "write_wall_s": host_clock(write_wall),
        "read_wall_s": host_clock(read_wall),
        "writers_per_s": Metric(nwriters / write_wall, "tasks/s", "info"),
        "data_read_calls": Metric(float(read_calls), "calls", "info"),
        "streams_per_reader": Metric(float(fanin), "streams", "info"),
    }
    text = (
        f"{nwriters} bulk-engine writers -> {nreaders} readers "
        f"({fanin} streams each, byte-verified): {read_calls} backend read "
        f"calls ({nreaders} vectored waves + {metadata_reads(1)} metadata) "
        f"in {read_wall:.2f} s after a {write_wall:.2f} s checkpoint"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# The m-axis: physical read calls are O(m), measured point by point.


def _reader_sweep(ctx) -> ScenarioOutput:
    p = ctx.params
    nwriters = p["nwriters"]
    backend = counting_backend()
    write_cycle(backend, nwriters, p["engine"], path="/repart.sion")
    metrics: dict[str, Metric] = {}
    lines = ["readers  read calls  streams/reader    wall"]
    for m in p["reader_counts"]:
        before = backend.snapshot()
        wall = _partitioned_read_cycle(backend, nwriters, m, p["engine"])
        snap = backend.snapshot()
        calls = snap["data_read_calls"] - before["data_read_calls"]
        pin(calls, m + metadata_reads(1), f"read calls at m={m}")
        metrics[f"read_wall_s[readers={m}]"] = host_clock(wall)
        metrics[f"read_calls[readers={m}]"] = Metric(float(calls), "calls", "info")
        lines.append(
            f"{m:>7}  {calls:>10}  {nwriters / m:>14.1f}  {wall:>5.2f} s"
        )
    text = (
        f"{nwriters}-stream multifile consumed by shrinking reader worlds "
        "(read calls scale with m, not n):\n" + "\n".join(lines)
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Collective-prefetch partitioned read: calls scale with collectors.


def _prefetch(ctx) -> ScenarioOutput:
    p = ctx.params
    nwriters, nreaders, collectsize = (
        p["nwriters"], p["nreaders"], p["collectsize"],
    )
    ngroups = -(-nreaders // collectsize)
    backend = counting_backend()
    write_cycle(backend, nwriters, p["engine"], path="/repart.sion")
    before = backend.snapshot()
    wall = _partitioned_read_cycle(
        backend, nwriters, nreaders, p["engine"], collectsize=collectsize
    )
    snap = backend.snapshot()
    calls = snap["data_read_calls"] - before["data_read_calls"]
    # One prefetch gather_read per collector group (single physical file).
    pin(backend.calls().get("gather_read", 0), ngroups, "prefetch waves")
    pin(calls, ngroups + metadata_reads(1), "total backend read calls")
    metrics = {
        "read_wall_s": host_clock(wall),
        "data_read_calls": Metric(float(calls), "calls", "info"),
        "collector_groups": Metric(float(ngroups), "groups", "info"),
    }
    text = (
        f"{nwriters} streams -> {nreaders} readers through {ngroups} "
        f"collector groups (collectsize {collectsize}): {calls} backend "
        f"read calls in {wall:.2f} s"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# The modelled checkpoint/analysis cycle (deterministic simulated seconds).


def _restart_analysis_model(ctx) -> ScenarioOutput:
    from repro.workloads.repartition import sweep_reader_counts

    p = ctx.params
    profile = ctx.profile
    sweep = sweep_reader_counts(
        profile, p["nwriters"], p["reader_counts"], p["bytes_per_writer"],
        nfiles=p["nfiles"],
    )
    # Shrinking the analysis world sheds aggregate client bandwidth, so
    # the modelled read can only slow down as m drops (counts ascend).
    read_times = [point.read.time_s for point in sweep]
    check(
        all(a >= b > 0 for a, b in zip(read_times, read_times[1:])),
        f"modelled read time grows with the reader count: {read_times}",
    )
    metrics: dict[str, Metric] = {}
    lines = ["readers  write (s)  read (s)  cycle (s)"]
    for point in sweep:
        m = point.nreaders
        metrics[f"read_time_s[readers={m}]"] = Metric(
            point.read.time_s, "s", "lower"
        )
        metrics[f"cycle_time_s[readers={m}]"] = Metric(
            point.cycle_time_s, "s", "lower"
        )
        lines.append(
            f"{m:>7}  {point.write.time_s:>9.2f}  {point.read.time_s:>8.2f}  "
            f"{point.cycle_time_s:>9.2f}"
        )
    text = (
        f"{p['nwriters']}-writer checkpoint analyzed by shrinking worlds on "
        f"{profile.name} (modelled):\n" + "\n".join(lines)
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Registration.

for _n in REPARTITION_WRITER_COUNTS:
    scenario(
        f"repartition/read[nwriters={_n}]",
        suite="repartition",
        tags=grid_tags("repartition", "data-plane", "read", _n in CI_GRID_COUNTS),
        params={
            "nwriters": _n,
            "nreaders": NREADERS,
            "engine": "bulk",
        },
    )(_read_grid_point)

scenario(
    "repartition/reader-sweep[nwriters=4096]",
    suite="repartition",
    tags=grid_tags("repartition", "data-plane", "reader-sweep", ci=True),
    params={
        "nwriters": 4096,
        "reader_counts": [8, 32, 256],
        "engine": "bulk",
    },
)(_reader_sweep)

scenario(
    "repartition/prefetch[nwriters=4096]",
    suite="repartition",
    tags=grid_tags("repartition", "data-plane", "prefetch", ci=True),
    params={
        "nwriters": 4096,
        "nreaders": 256,
        "collectsize": 8,
        "engine": "bulk",
    },
)(_prefetch)

scenario(
    "repartition/restart-analysis-model[system=jugene]",
    suite="repartition",
    tags=("repartition", "restart-analysis", "ci-grid"),
    params={
        "nwriters": 65536,
        "reader_counts": [256, 4096, 65536],
        "bytes_per_writer": 2 * 1024 * KiB,
        "nfiles": 16,
    },
    profile="jugene",
)(_restart_analysis_model)
