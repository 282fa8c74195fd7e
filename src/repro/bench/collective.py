"""``collective`` suite: collector-rank aggregation at paper-scale counts.

The data-plane claim of ISSUE 4: with ``paropen(..., collectsize=K)`` the
number of *physical* data calls scales with the number of collectors, not
the number of tasks, while the files stay byte-identical to direct mode.
These scenarios drive the real library over the simulated store with a
:class:`~repro.backends.instrument.CountingBackend` and assert the call
counts from first principles (like the ``scale`` suite pins its on-disk
geometry).  Those pins are the whole gate: wall clock is reported, never
compared, so the suite has no committed baseline.

* ``collective/write-wave[ntasks=N]`` — N tasks funnel one payload each
  through ``NCOLLECTORS`` collectors; exactly one ``scatter_write`` per
  collector must reach the store (plus the three metadata writes per
  physical file).
* ``collective/read-wave[ntasks=N]`` — the read-side mirror: one
  prefetching ``gather_read`` per collector, every task's payload
  round-tripped.
* ``collective/direct-vs-collective`` — the same workload in both modes:
  physical files must be byte-identical, and the collective mode's write
  calls must not scale with the task count (direct mode's do).
* ``collective/nfiles-collectors-tradeoff`` — the paper's Fig. 4
  methodology applied to the new axis: sweep physical files x collectors
  at a fixed task count and record the per-file call pressure, the
  knob balance the paper studies for ``nfiles`` alone.

All SION backend interactions — collective mode's waves *and* direct
mode's replay-guarded handles — are ``exec_once``-guarded, so every
count here is deterministic under the bulk engine's memoized replay and
pinned exactly from first principles.  The 4k/16k points carry the
``ci-grid`` tag and run on every push; 64k runs in the nightly
workflow.
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
    counting_backend,
    grid_tags,
    host_clock,
    payload,
    pin,
    write_cycle,
)
from repro.bench.scale import expected_geometry
from repro.sion.mapping import physical_path

#: Task counts of the full grid; the first two form the CI grid.
COLLECTIVE_TASK_COUNTS = (4096, 16384, 65536)

#: Collectors per scenario — constant while the task count grows, which
#: is the whole point: physical-writer pressure stays flat.
NCOLLECTORS = 64

#: Backend write calls per physical file that are metadata, not data:
#: the metablock-1 create, the metablock-2 append, and the metablock-1
#: offset patch.
METADATA_WRITES_PER_FILE = 3


def _read_cycle(backend, ntasks, engine, *, collectors=None,
                payload_bytes=PAYLOAD, path="/coll.sion"):
    """Collective read-back; asserts corner ranks round-trip exactly."""
    from repro.simmpi import run_spmd
    from repro.sion import paropen

    check = {0, ntasks // 2, ntasks - 1}

    def program(comm):
        f = paropen(path, "r", comm, backend=backend, collectors=collectors)
        data = f.read_all()
        f.parclose()
        return data if comm.rank in check else len(data)

    t0 = time.perf_counter()
    out = run_spmd(ntasks, program, engine=engine)
    wall = time.perf_counter() - t0
    for rank in check:
        if out[rank] != payload(rank, payload_bytes):
            raise AssertionError(f"rank {rank} round-tripped corrupted bytes")
    return wall


# --------------------------------------------------------------------------
# Write side: one scatter_write per collector per wave.


def _write_wave(ctx) -> ScenarioOutput:
    from repro.sion import resolve_collectsize

    p = ctx.params
    ntasks, ncoll = p["ntasks"], p["collectors"]
    collectsize = resolve_collectsize(None, ncoll, ntasks)
    backend = counting_backend()
    wall, geom = write_cycle(
        backend, ntasks, p["engine"], nfiles=p["nfiles"], collectors=ncoll
    )
    pin(geom, expected_geometry(ntasks, CHUNKSIZE, FSBLK), "on-disk geometry")
    snap = backend.snapshot()
    calls = backend.stats.calls
    pin(calls.get("scatter_write", 0), ncoll, "wave scatter_writes")
    pin(
        snap["data_write_calls"],
        ncoll + METADATA_WRITES_PER_FILE * p["nfiles"],
        "total backend write calls",
    )
    # One exec_once-guarded handle per collector plus the per-file
    # metablock-1 create.
    pin(snap["opens"], ncoll + p["nfiles"], "backend opens")
    metrics = {
        "open_write_close_wall_s": host_clock(wall),
        "tasks_per_s": Metric(ntasks / wall, "tasks/s", "info"),
        "wave_write_calls": Metric(float(calls["scatter_write"]), "calls", "info"),
        "data_write_calls": Metric(float(snap["data_write_calls"]), "calls", "info"),
        "tasks_per_collector": Metric(float(collectsize), "tasks", "info"),
    }
    text = (
        f"{ntasks} tasks -> {ncoll} collectors (collectsize {collectsize}): "
        f"{snap['data_write_calls']} backend write calls "
        f"({calls['scatter_write']} waves + "
        f"{METADATA_WRITES_PER_FILE * p['nfiles']} metadata) in {wall:.2f} s"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Read side: one prefetching gather_read per collector.


def _read_wave(ctx) -> ScenarioOutput:
    p = ctx.params
    ntasks, ncoll = p["ntasks"], p["collectors"]
    backend = counting_backend()
    write_cycle(backend, ntasks, p["engine"], collectors=ncoll)
    before = backend.snapshot()
    wall = _read_cycle(backend, ntasks, p["engine"], collectors=ncoll)
    snap = backend.snapshot()
    pin(
        backend.stats.calls.get("gather_read", 0), ncoll, "prefetch gather_reads"
    )
    read_calls = snap["data_read_calls"] - before["data_read_calls"]
    # Metadata costs 8 positioned reads per physical file (rank 0's set
    # load decodes metablock 1 + metablock 2 once); everything else is
    # exactly one prefetch wave per collector, one data fragment per task
    # (each task wrote a single block).
    meta_reads = 8 * 1
    pin(read_calls, ncoll + meta_reads, "total backend read calls")
    pin(
        snap["fragments_read"] - before["fragments_read"],
        ntasks + meta_reads,
        "prefetched fragments",
    )
    metrics = {
        "read_wall_s": host_clock(wall),
        "tasks_per_s": Metric(ntasks / wall, "tasks/s", "info"),
        "wave_read_calls": Metric(float(ncoll), "calls", "info"),
        "data_read_calls": Metric(float(read_calls), "calls", "info"),
    }
    text = (
        f"{ntasks} tasks read back through {ncoll} collectors: "
        f"{read_calls} backend read calls ({ncoll} prefetch waves) "
        f"in {wall:.2f} s"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Equivalence: collective mode must be invisible in the bytes.


def _direct_vs_collective(ctx) -> ScenarioOutput:
    p = ctx.params
    ntasks, ncoll, nfiles = p["ntasks"], p["collectors"], p["nfiles"]
    direct = counting_backend()
    write_cycle(direct, ntasks, p["engine"], nfiles=nfiles)
    coll = counting_backend()
    write_cycle(coll, ntasks, p["engine"], nfiles=nfiles, collectors=ncoll)
    for fn in range(nfiles):
        path = physical_path("/coll.sion", fn)
        if direct.file_size(path) != coll.file_size(path):
            raise AssertionError(f"file {fn}: sizes differ between modes")
        a = direct.inner.open(path, "rb")
        b = coll.inner.open(path, "rb")
        try:
            same = a.pread(0, direct.file_size(path)) == b.pread(0, coll.file_size(path))
        finally:
            a.close()
            b.close()
        if not same:
            raise AssertionError(f"file {fn}: bytes differ between modes")
    dsnap, csnap = direct.snapshot(), coll.snapshot()
    meta = METADATA_WRITES_PER_FILE * nfiles
    pin(csnap["data_write_calls"], ncoll + meta, "collective write calls")
    # Direct-mode handles are replay-guarded, so the counts are exact on
    # every engine: one physical call per task plus the metadata writes.
    pin(dsnap["data_write_calls"], ntasks + meta, "direct write calls")
    ratio = dsnap["data_write_calls"] / csnap["data_write_calls"]
    metrics = {
        "collective_write_calls": Metric(
            float(csnap["data_write_calls"]), "calls", "info"
        ),
        "direct_write_calls": Metric(
            float(dsnap["data_write_calls"]), "calls", "info"
        ),
        "write_call_reduction": Metric(ratio, "x", "info"),
        "bytes_written_delta": Metric(
            float(csnap["bytes_written"] - dsnap["bytes_written"]), "bytes", "info"
        ),
    }
    text = (
        f"{ntasks} tasks over {nfiles} file(s): byte-identical multifiles; "
        f"write calls {dsnap['data_write_calls']} (direct) -> "
        f"{csnap['data_write_calls']} (collective, {ncoll} collectors), "
        f"{ratio:.0f}x fewer"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# The nfiles x collectors tradeoff (Fig. 4 methodology on the new axis).


def _nfiles_collectors_tradeoff(ctx) -> ScenarioOutput:
    p = ctx.params
    ntasks = p["ntasks"]
    metrics: dict[str, Metric] = {}
    lines = ["nfiles  collectors  write calls  calls/file   wall"]
    for nfiles in p["nfiles_sweep"]:
        for ncoll in p["collectors_sweep"]:
            backend = counting_backend()
            wall, _ = write_cycle(
                backend, ntasks, p["engine"], nfiles=nfiles, collectors=ncoll
            )
            snap = backend.snapshot()
            pin(
                snap["data_write_calls"],
                ncoll + METADATA_WRITES_PER_FILE * nfiles,
                f"write calls at nfiles={nfiles}, collectors={ncoll}",
            )
            key = f"[nfiles={nfiles},collectors={ncoll}]"
            metrics[f"write_calls{key}"] = Metric(
                float(snap["data_write_calls"]), "calls", "info"
            )
            metrics[f"calls_per_file{key}"] = Metric(
                snap["data_write_calls"] / nfiles, "calls", "info"
            )
            metrics[f"wall_s{key}"] = host_clock(wall)
            lines.append(
                f"{nfiles:>6}  {ncoll:>10}  {snap['data_write_calls']:>11}  "
                f"{snap['data_write_calls'] / nfiles:>10.1f}  {wall:>5.2f} s"
            )
    text = (
        f"{ntasks} tasks, nfiles x collectors sweep "
        "(physical pressure per file vs. aggregation degree):\n"
        + "\n".join(lines)
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Registration.

for _n in COLLECTIVE_TASK_COUNTS:
    scenario(
        f"collective/write-wave[ntasks={_n}]",
        suite="collective",
        tags=grid_tags("collective", "data-plane", "write-wave", _n in CI_GRID_COUNTS),
        params={
            "ntasks": _n,
            "collectors": NCOLLECTORS,
            "nfiles": 1,
            "engine": "bulk",
        },
    )(_write_wave)
    scenario(
        f"collective/read-wave[ntasks={_n}]",
        suite="collective",
        tags=grid_tags("collective", "data-plane", "read-wave", _n in CI_GRID_COUNTS),
        params={"ntasks": _n, "collectors": NCOLLECTORS, "engine": "bulk"},
    )(_read_wave)

scenario(
    "collective/direct-vs-collective[ntasks=4096]",
    suite="collective",
    tags=grid_tags("collective", "data-plane", "equivalence", ci=True),
    params={"ntasks": 4096, "collectors": NCOLLECTORS, "nfiles": 2, "engine": "bulk"},
)(_direct_vs_collective)

scenario(
    "collective/nfiles-collectors-tradeoff[ntasks=4096]",
    suite="collective",
    tags=grid_tags("collective", "data-plane", "tradeoff", ci=True),
    params={
        "ntasks": 4096,
        "nfiles_sweep": [1, 2, 4],
        "collectors_sweep": [16, 64, 256],
        "engine": "bulk",
    },
)(_nfiles_collectors_tradeoff)
