"""Built-in scenario definitions.

Every figure/table benchmark of the paper is registered here so the CLI
runner, the regression gate, and ``benchmarks/bench_scenarios.py`` all
execute the same code.  Scenarios in the ``smoke`` suite measure
*deterministic* simulated costs (virtual seconds / modelled MB/s) —
byte-identical across runs, so the comparator can gate them tightly —
and :func:`~repro.bench.scaffold.check` the paper's qualitative claims
(speedup floors, orderings, crossovers) in place.  The ``full`` suite
adds wall-clock micro scenarios of the real library (``better="info"``:
never gated, still recorded).
"""

from __future__ import annotations

import time

from repro.analysis.model import predict_create_time, predict_sion_create_time
from repro.analysis.plots import ascii_chart
from repro.analysis.results import Series, format_table, human_count
from repro.bench.registry import scenario
from repro.bench.results import Metric, ScenarioOutput, series_metrics
from repro.bench.scaffold import KiB, check, read_cycle, write_cycle
from repro.fs.interference import bystander_latency
from repro.fs.metadata import MetadataCosts, fifo_finish_times
from repro.workloads import alignment, archive, bandwidth, filecreate, taskbw
from repro.workloads.common import parallel_io
from repro.workloads.mp2c_io import crossover_particles_m, run_fig6
from repro.workloads.scalasca_io import run_table2
from repro.workloads.scaling import analyzer_load_times, mp2c_weak_scaling

TB = 10**12

# --------------------------------------------------------------------------
# Fig. 3 — parallel file creation / opening vs. SION multifile creation.


def _fig3_output(label: str, rows, sion_create_max_s: float) -> ScenarioOutput:
    check(
        rows[-1].sion_create_s < sion_create_max_s,
        f"{label}: SION create at {rows[-1].ntasks} tasks took "
        f"{rows[-1].sion_create_s:.2f} s (paper: < {sion_create_max_s:.0f} s)",
    )
    series = Series(label, "#tasks", "time (s)", xs=[r.ntasks for r in rows])
    series.add_curve("create files", [r.create_files_s for r in rows])
    series.add_curve("open existing", [r.open_existing_s for r in rows])
    series.add_curve("SION create", [r.sion_create_s for r in rows])
    text = format_table(series)
    text += "\n\nspeedup (create/SION): " + "  ".join(
        f"{human_count(r.ntasks)}:{r.create_speedup:.0f}x" for r in rows
    )
    metrics = series_metrics(series)
    metrics["create_speedup_at_max"] = Metric(
        rows[-1].create_speedup, unit="x", better="higher"
    )
    return ScenarioOutput(metrics=metrics, text=text)


@scenario(
    "fig3/filecreate-jugene",
    suite="smoke",
    tags=("fig3", "create", "jugene"),
    params={"task_counts": filecreate.JUGENE_TASK_COUNTS, "sion_nfiles": 1},
    profile="jugene",
)
def fig3_jugene(ctx) -> ScenarioOutput:
    rows = filecreate.run_fig3(
        ctx.profile, ctx.params["task_counts"], ctx.params["sion_nfiles"]
    )
    return _fig3_output("fig3a", rows, sion_create_max_s=3.0)


@scenario(
    "fig3/filecreate-jaguar",
    suite="smoke",
    tags=("fig3", "create", "jaguar"),
    params={"task_counts": filecreate.JAGUAR_TASK_COUNTS, "sion_nfiles": 16},
    profile="jaguar",
)
def fig3_jaguar(ctx) -> ScenarioOutput:
    rows = filecreate.run_fig3(
        ctx.profile, ctx.params["task_counts"], ctx.params["sion_nfiles"]
    )
    return _fig3_output("fig3b", rows, sion_create_max_s=10.0)


# --------------------------------------------------------------------------
# Fig. 4 — bandwidth over the number of physical files.


@scenario(
    "fig4/nfiles-jugene",
    suite="smoke",
    tags=("fig4", "bandwidth", "jugene"),
    profile="jugene",
)
def fig4_jugene(ctx) -> ScenarioOutput:
    pts = bandwidth.run_fig4a(ctx.profile)
    series = Series("fig4a", "#files", "MB/s", xs=[p.nfiles for p in pts])
    series.add_curve("write", [p.write_mb_s for p in pts])
    series.add_curve("read", [p.read_mb_s for p in pts])
    by_n = {p.nfiles: p for p in pts}
    check(
        by_n[16].write_mb_s > 2 * by_n[1].write_mb_s
        and by_n[128].write_mb_s < by_n[16].write_mb_s,
        "fig4a: write bandwidth must saturate by 16 files and decline at 128",
    )
    return ScenarioOutput(
        metrics=series_metrics(series, unit="MB/s", better="higher"),
        text=format_table(series),
    )


@scenario(
    "fig4/nfiles-jaguar",
    suite="smoke",
    tags=("fig4", "bandwidth", "jaguar"),
    profile="jaguar",
)
def fig4_jaguar(ctx) -> ScenarioOutput:
    res = bandwidth.run_fig4b(ctx.profile)
    series = Series("fig4b", "#files", "MB/s", xs=[p.nfiles for p in res.default])
    series.add_curve("write (default)", [p.write_mb_s for p in res.default])
    series.add_curve("read (default)", [p.read_mb_s for p in res.default])
    series.add_curve("write (optimized)", [p.write_mb_s for p in res.optimized])
    series.add_curve("read (optimized)", [p.read_mb_s for p in res.optimized])
    check(
        all(o.write_mb_s >= d.write_mb_s - 1e-6 for d, o in zip(res.default, res.optimized)),
        "fig4b: optimized striping must never write slower than the default",
    )
    return ScenarioOutput(
        metrics=series_metrics(series, unit="MB/s", better="higher"),
        text=format_table(series),
    )


# --------------------------------------------------------------------------
# Fig. 5 — SION vs. task-local bandwidth over task counts.


def _fig5_output(label: str, pts) -> ScenarioOutput:
    series = Series(label, "#tasks", "MB/s", xs=[p.ntasks for p in pts])
    series.add_curve("SION write", [p.sion_write for p in pts])
    series.add_curve("SION read", [p.sion_read for p in pts])
    series.add_curve("task-local write", [p.tasklocal_write for p in pts])
    series.add_curve("task-local read", [p.tasklocal_read for p in pts])
    text = format_table(series) + "\n\n" + ascii_chart(series, log_x=True)
    return ScenarioOutput(
        metrics=series_metrics(series, unit="MB/s", better="higher"), text=text
    )


@scenario(
    "fig5/taskbw-jugene",
    suite="smoke",
    tags=("fig5", "bandwidth", "jugene"),
    profile="jugene",
)
def fig5_jugene(ctx) -> ScenarioOutput:
    pts = taskbw.run_fig5a(ctx.profile)
    check(
        all(p.sion_write >= p.tasklocal_write - 1e-6 for p in pts),
        "fig5a: SION must write at least as fast as task-local files",
    )
    return _fig5_output("fig5a", pts)


@scenario(
    "fig5/taskbw-jaguar",
    suite="smoke",
    tags=("fig5", "bandwidth", "jaguar"),
    profile="jaguar",
)
def fig5_jaguar(ctx) -> ScenarioOutput:
    pts = taskbw.run_fig5b(ctx.profile)
    check(
        pts[-1].sion_read > ctx.profile.nominal_peak_bw,
        "fig5b: SION reads must exceed the nominal peak at scale (client caching)",
    )
    return _fig5_output("fig5b", pts)


# --------------------------------------------------------------------------
# Fig. 6 — MP2C restart I/O on 1000 cores.


@scenario(
    "fig6/mp2c-restart",
    suite="smoke",
    tags=("fig6", "mp2c", "jugene"),
    profile="jugene",
)
def fig6_mp2c(ctx) -> ScenarioOutput:
    pts = run_fig6(ctx.profile)
    series = Series("fig6", "Mio. particles", "time (s)", xs=[p.particles_m for p in pts])
    series.add_curve("write, SION", [p.sion_write_s for p in pts])
    series.add_curve("read, SION", [p.sion_read_s for p in pts])
    series.add_curve("write", [p.single_write_s for p in pts])
    series.add_curve("read", [p.single_read_s for p in pts])
    text = format_table(series)
    text += "\n\n" + ascii_chart(series, log_x=True, log_y=True)
    cross = crossover_particles_m(pts)
    by_m = {p.particles_m: p for p in pts}
    check(cross is not None, "fig6: SION and single-file curves must cross")
    check(
        by_m[33.0].write_speedup >= 10,
        f"fig6: write speedup at 33 M particles is {by_m[33.0].write_speedup:.1f}x "
        "(paper: 1-2 orders of magnitude)",
    )
    text += (
        f"\n\ncrossover at ~{cross} M particles; "
        f"speedup at 33 M: write {by_m[33.0].write_speedup:.0f}x, "
        f"read {by_m[33.0].read_speedup:.0f}x (paper: 1-2 orders of magnitude)"
    )
    metrics = series_metrics(series)
    metrics["write_speedup_at_33M"] = Metric(
        by_m[33.0].write_speedup, unit="x", better="higher"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Table 1 — block alignment, and its ablation sweep.


@scenario(
    "table1/alignment",
    suite="smoke",
    tags=("table1", "alignment", "jugene"),
    profile="jugene",
)
def table1_alignment(ctx) -> ScenarioOutput:
    res = alignment.run_table1(ctx.profile)
    check(
        2.2 < res.write_factor < 2.9 and 1.5 < res.read_factor < 2.1,
        f"table1: alignment factors write {res.write_factor:.2f}x / read "
        f"{res.read_factor:.2f}x left the paper's 2.53x / 1.78x neighbourhood",
    )
    rows = [
        "#tasks  data      blksize  write MB/s  read MB/s",
        "------  --------  -------  ----------  ---------",
        f"{res.aligned.ntasks:>6}  {res.aligned.data_bytes // 10**9:>5} GB  "
        f"{res.aligned.blksize // 1024:>4} KB  {res.aligned.write_mb_s:>10.1f}  "
        f"{res.aligned.read_mb_s:>9.1f}",
        f"{res.unaligned.ntasks:>6}  {res.unaligned.data_bytes // 10**9:>5} GB  "
        f"{res.unaligned.blksize // 1024:>4} KB  {res.unaligned.write_mb_s:>10.1f}  "
        f"{res.unaligned.read_mb_s:>9.1f}",
        "",
        f"factors: write {res.write_factor:.2f}x (paper 2.53x)   "
        f"read {res.read_factor:.2f}x (paper 1.78x)",
    ]
    metrics = {
        "aligned_write_mb_s": Metric(res.aligned.write_mb_s, "MB/s", "higher"),
        "aligned_read_mb_s": Metric(res.aligned.read_mb_s, "MB/s", "higher"),
        "unaligned_write_mb_s": Metric(res.unaligned.write_mb_s, "MB/s", "higher"),
        "unaligned_read_mb_s": Metric(res.unaligned.read_mb_s, "MB/s", "higher"),
        "write_factor": Metric(res.write_factor, "x", "info"),
        "read_factor": Metric(res.read_factor, "x", "info"),
    }
    return ScenarioOutput(metrics=metrics, text="\n".join(rows))


#: Block sizes for the alignment ablation (2 MiB true block downward).
ALIGNMENT_SWEEP_BLKSIZES = [
    2048 * KiB, 1024 * KiB, 512 * KiB, 128 * KiB, 64 * KiB, 16 * KiB, 4 * KiB,
]


@scenario(
    "ablation/alignment-sweep",
    suite="smoke",
    tags=("ablation", "alignment", "jugene"),
    params={"blk_sizes": ALIGNMENT_SWEEP_BLKSIZES},
    profile="jugene",
)
def ablation_alignment_sweep(ctx) -> ScenarioOutput:
    rows = alignment.alignment_sweep(ctx.profile, ctx.params["blk_sizes"])
    series = Series(
        "alignment-sweep", "blk KiB", "MB/s", xs=[r.blksize // KiB for r in rows]
    )
    series.add_curve("write", [r.write_mb_s for r in rows])
    series.add_curve("read", [r.read_mb_s for r in rows])
    base_w = rows[0].write_mb_s
    penalties = [base_w / r.write_mb_s for r in rows]
    check(
        penalties == sorted(penalties) and penalties[-1] < 2.6,
        f"write penalty must grow monotonically and saturate near 1 + c: {penalties}",
    )
    series.add_curve("write penalty", penalties)
    metrics = series_metrics(
        series,
        unit="MB/s",
        better="higher",
        overrides={"write penalty": ("x", "lower")},
    )
    return ScenarioOutput(metrics=metrics, text=format_table(series))


# --------------------------------------------------------------------------
# Table 2 — Scalasca trace activation and write bandwidth.


@scenario(
    "table2/scalasca",
    suite="smoke",
    tags=("table2", "scalasca", "jugene"),
    profile="jugene",
)
def table2_scalasca(ctx) -> ScenarioOutput:
    res = run_table2(ctx.profile)
    check(
        res.activation_speedup > 5
        and res.sion.write_bw_mb_s > res.tasklocal.write_bw_mb_s,
        f"table2: activation speedup {res.activation_speedup:.1f}x (paper 13.1x) "
        "with no loss of write bandwidth",
    )
    rows = [
        "I/O type    #tasks  trace size  activation  write BW",
        "----------  ------  ----------  ----------  ---------",
    ]
    rows.extend(
        f"{row.io_type:<10}  {row.ntasks:>6}  "
        f"{row.trace_bytes / 10**9:>7.0f} GB  {row.activation_s:>8.1f} s  "
        f"{row.write_bw_mb_s:>6.0f} MB/s"
        for row in (res.tasklocal, res.sion)
    )
    rows.append("")
    rows.append(
        f"activation speedup: {res.activation_speedup:.1f}x (paper: 13.1x; "
        "the paper's own Fig. 3a implies ~8x at 32K under the conditions it "
        "reports — production-run variance)"
    )
    metrics = {
        "tasklocal_activation_s": Metric(res.tasklocal.activation_s),
        "sion_activation_s": Metric(res.sion.activation_s),
        "tasklocal_write_bw_mb_s": Metric(res.tasklocal.write_bw_mb_s, "MB/s", "higher"),
        "sion_write_bw_mb_s": Metric(res.sion.write_bw_mb_s, "MB/s", "higher"),
        "activation_speedup": Metric(res.activation_speedup, "x", "info"),
    }
    return ScenarioOutput(metrics=metrics, text="\n".join(rows))


# --------------------------------------------------------------------------
# Ablation — tape-archive handling of one vs. 32K files.


@scenario(
    "ablation/tape-archive",
    suite="smoke",
    tags=("ablation", "archive"),
    params={"sweep_task_counts": [1024, 4096, 16384, 65536]},
)
def ablation_tape_archive(ctx) -> ScenarioOutput:
    cmp_ = archive.run_archive_comparison()
    check(
        cmp_.archive_speedup > 2 and cmp_.retrieve_speedup > 2,
        f"multifile archive/retrieve speedups {cmp_.archive_speedup:.1f}x / "
        f"{cmp_.retrieve_speedup:.1f}x not > 2x",
    )
    lines = [
        "scenario: 1470 GB of traces, 32K tasks, 4 interleaved archive users",
        "",
        f"archive   task-local: {cmp_.tasklocal_archive_s:>9.0f} s   "
        f"multifile (16): {cmp_.multifile_archive_s:>7.0f} s   "
        f"speedup {cmp_.archive_speedup:.1f}x",
        f"retrieve  task-local: {cmp_.tasklocal_retrieve_s:>9.0f} s   "
        f"multifile (16): {cmp_.multifile_retrieve_s:>7.0f} s   "
        f"speedup {cmp_.retrieve_speedup:.1f}x",
    ]
    sweep = archive.sweep_task_counts(ctx.params["sweep_task_counts"])
    series = Series("archive-sweep", "#tasks", "seconds", xs=[p.ntasks for p in sweep])
    series.add_curve(
        "archive task-local", [p.comparison.tasklocal_archive_s for p in sweep]
    )
    series.add_curve(
        "archive multifile", [p.comparison.multifile_archive_s for p in sweep]
    )
    series.add_curve(
        "retrieve task-local", [p.comparison.tasklocal_retrieve_s for p in sweep]
    )
    series.add_curve(
        "retrieve multifile", [p.comparison.multifile_retrieve_s for p in sweep]
    )
    metrics = series_metrics(series)
    metrics["archive_speedup"] = Metric(cmp_.archive_speedup, "x", "higher")
    metrics["retrieve_speedup"] = Metric(cmp_.retrieve_speedup, "x", "higher")
    return ScenarioOutput(
        metrics=metrics, text="\n".join(lines) + "\n\n" + format_table(series)
    )


# --------------------------------------------------------------------------
# Ablation — create-storm collateral damage on a bystander.

STORM_SIZES = [0, 1024, 4096, 16384, 65536]


@scenario(
    "ablation/interference",
    suite="smoke",
    tags=("ablation", "metadata", "jugene"),
    params={"storm_sizes": STORM_SIZES},
    profile="jugene",
)
def ablation_interference(ctx) -> ScenarioOutput:
    costs = ctx.profile.metadata_costs
    rows = [bystander_latency(costs, n) for n in ctx.params["storm_sizes"]]
    series = Series("interference", "storm ops", "seconds", xs=[r.storm_ops for r in rows])
    series.add_curve("bystander latency", [r.storm_latency_s for r in rows])
    series.add_curve("slowdown", [r.slowdown for r in rows])
    sion_like = bystander_latency(costs, 16)
    check(
        rows[-1].storm_latency_s > 60 and sion_like.storm_latency_s < 0.1,
        "a 64K create storm must cost a bystander minutes, a SION creation nothing",
    )
    text = format_table(series) + (
        f"\n\nduring a SION creation (16 creates) the same bystander waits "
        f"{sion_like.storm_latency_s * 1e3:.1f} ms — the disruption simply "
        "does not happen"
    )
    metrics = series_metrics(series)
    metrics["sion_bystander_latency_s"] = Metric(sion_like.storm_latency_s)
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Ablation — collective metadata handling vs. naive alternatives.

METADATA_TASK_COUNTS = [1024, 4096, 16384, 65536]

#: Serialized per-task metablock update (lock grab + small write).
PER_TASK_UPDATE = 2.0e-4


def naive_metadata_time(ntasks: int) -> float:
    """Every task appends its own entry to the shared metablock."""
    costs = MetadataCosts(create=PER_TASK_UPDATE)
    return max(fifo_finish_times(["create"] * ntasks, costs))


def metadata_exchange_sweep(profile, task_counts):
    """(ntasks, collective, naive-metablock, per-task-files) rows."""
    rows = []
    for n in task_counts:
        sion = filecreate.sion_open_time(profile, n)
        rows.append(
            (
                n,
                sion,
                naive_metadata_time(n) + sion,
                filecreate.tasklocal_metadata_time(profile, n, "create"),
            )
        )
    return rows


@scenario(
    "ablation/metadata-exchange",
    suite="smoke",
    tags=("ablation", "metadata", "jugene"),
    params={"task_counts": METADATA_TASK_COUNTS},
    profile="jugene",
)
def ablation_metadata_exchange(ctx) -> ScenarioOutput:
    rows = metadata_exchange_sweep(ctx.profile, ctx.params["task_counts"])
    check(
        all(collective < naive < tasklocal for _, collective, naive, tasklocal in rows),
        "collective metadata must beat per-task metablock writes, which beat per-task files",
    )
    series = Series("metadata-exchange", "#tasks", "seconds", xs=[r[0] for r in rows])
    series.add_curve("collective (SION)", [r[1] for r in rows])
    series.add_curve("per-task metablock writes", [r[2] for r in rows])
    series.add_curve("per-task files", [r[3] for r in rows])
    return ScenarioOutput(metrics=series_metrics(series), text=format_table(series))


# --------------------------------------------------------------------------
# Ablation — choosing the number of physical files.

NFILES_TRADEOFF = [1, 2, 4, 8, 16, 32, 64, 128]


def nfiles_tradeoff_times(profile, ntasks: int, nfiles_list):
    """(nfiles, create, write-1TB, total) rows for a 1 TB checkpoint."""
    out = []
    for nf in nfiles_list:
        create = filecreate.sion_open_time(profile, ntasks, nf)
        io = parallel_io(profile, ntasks, 1 * TB, "write", nfiles=nf)
        out.append((nf, create, io.time_s, create + io.time_s))
    return out


@scenario(
    "ablation/nfiles-tradeoff",
    suite="smoke",
    tags=("ablation", "bandwidth", "jugene"),
    params={"ntasks": 65536, "nfiles": NFILES_TRADEOFF},
    profile="jugene",
)
def ablation_nfiles_tradeoff(ctx) -> ScenarioOutput:
    rows = nfiles_tradeoff_times(ctx.profile, ctx.params["ntasks"], ctx.params["nfiles"])
    totals = {r[0]: r[3] for r in rows}
    check(
        totals[16] < totals[1] and totals[16] <= totals[128],
        "the nfiles optimum sits in the middle: 16 files must beat both 1 and 128",
    )
    series = Series("nfiles-tradeoff", "#files", "seconds", xs=[r[0] for r in rows])
    series.add_curve("create", [r[1] for r in rows])
    series.add_curve("write 1TB", [r[2] for r in rows])
    series.add_curve("total", [r[3] for r in rows])
    return ScenarioOutput(metrics=series_metrics(series), text=format_table(series))


# --------------------------------------------------------------------------
# Weak scaling — MP2C checkpoints and analyzer trace loads.

SCALING_TASK_COUNTS = [1024, 4096, 16384, 65536]


@scenario(
    "weak-scaling/mp2c",
    suite="smoke",
    tags=("scaling", "mp2c", "jugene"),
    params={"task_counts": SCALING_TASK_COUNTS},
    profile="jugene",
)
def weak_scaling_mp2c(ctx) -> ScenarioOutput:
    pts = mp2c_weak_scaling(ctx.profile, ctx.params["task_counts"])
    series = Series("weak-scaling", "#tasks", "seconds", xs=[p.ntasks for p in pts])
    series.add_curve("SION write", [p.sion_write_s for p in pts])
    series.add_curve("single-file write", [p.single_write_s for p in pts])
    speedups = [p.speedup for p in pts]
    check(
        speedups == sorted(speedups) and speedups[-1] > 100,
        f"weak-scaling speedup must grow with the machine past 100x: {speedups}",
    )
    series.add_curve("speedup", speedups)
    metrics = series_metrics(series, overrides={"speedup": ("x", "higher")})
    return ScenarioOutput(metrics=metrics, text=format_table(series))


@scenario(
    "weak-scaling/analyzer-load",
    suite="smoke",
    tags=("scaling", "scalasca", "jugene"),
    params={"task_counts": SCALING_TASK_COUNTS},
    profile="jugene",
)
def weak_scaling_analyzer(ctx) -> ScenarioOutput:
    pts = analyzer_load_times(ctx.profile, ctx.params["task_counts"])
    series = Series("analyzer-load", "#tasks", "seconds", xs=[p.ntasks for p in pts])
    series.add_curve("task-local open", [p.tasklocal_open_s for p in pts])
    series.add_curve("SION open", [p.sion_open_s for p in pts])
    check(
        all(p.sion_open_s < p.tasklocal_open_s for p in pts),
        "the analyzer must open a SION multifile faster than task-local traces",
    )
    text = format_table(series) + "\n\nspeedup: " + "  ".join(
        f"{human_count(p.ntasks)}:{p.speedup:.0f}x" for p in pts
    )
    return ScenarioOutput(metrics=series_metrics(series), text=text)


# --------------------------------------------------------------------------
# Extrapolation — the scaling argument at exascale task counts (both
# machines share one scenario body: a parameter-grid registration).

EXTRAPOLATION_TASK_COUNTS = [65536, 131072, 262144, 524288, 1048576]


def extrapolation_sweep(profile, task_counts):
    """(ntasks, create, open, sion-create-32-files) model predictions."""
    return [
        (
            n,
            predict_create_time(profile, n, "create"),
            predict_create_time(profile, n, "open"),
            predict_sion_create_time(profile, n, 32),
        )
        for n in task_counts
    ]


@scenario(
    "extrapolation/create",
    suite="smoke",
    tags=("extrapolation", "model"),
    params={"task_counts": EXTRAPOLATION_TASK_COUNTS},
    grid={"system": ["jugene", "jaguar"]},
)
def extrapolation_create(ctx) -> ScenarioOutput:
    rows = extrapolation_sweep(ctx.profile, ctx.params["task_counts"])
    speedups = [create / sion for _, create, _, sion in rows]
    check(
        rows[-1][1] > 3600 and speedups[-1] > 100,
        f"at {rows[-1][0]} tasks pure creates must cost over an hour and the "
        f"multifile stay two orders below: {rows[-1][1]:.0f} s, {speedups[-1]:.0f}x",
    )
    check(
        all(b >= 0.9 * a for a, b in zip(speedups, speedups[1:])),
        f"create/SION speedup must keep growing with the task count: {speedups}",
    )
    series = Series("extrapolation", "#tasks", "seconds", xs=[r[0] for r in rows])
    series.add_curve("create files", [r[1] for r in rows])
    series.add_curve("open existing", [r[2] for r in rows])
    series.add_curve("SION create (32 files)", [r[3] for r in rows])
    text = format_table(series)
    per_m = {n: c for n, c, _, _ in rows}
    text += (
        f"\n\nat 1M tasks: {per_m[1048576] / 60:.0f} minutes just to create the "
        f"task-local files — even *opening* existing ones costs "
        f"{rows[-1][2] / 60:.0f} minutes per run; the SION multifile stays at "
        f"{rows[-1][3]:.0f} s"
    )
    return ScenarioOutput(metrics=series_metrics(series), text=text)


# --------------------------------------------------------------------------
# Micro — wall-clock measurements of the real library (full suite only;
# ``better="info"``: recorded for trending, never regression-gated).

MICRO_NTASKS = 8
MICRO_CHUNK = 64 * KiB
MICRO_PAYLOAD_BYTES = 256 * KiB


@scenario(
    "micro/paropen-roundtrip",
    suite="full",
    tags=("micro", "wallclock"),
)
def micro_paropen(ctx) -> ScenarioOutput:
    """Write and read back one multifile with the real library on disk."""
    import tempfile

    from repro.backends.localfs import LocalBackend

    backend = LocalBackend(blocksize_override=4096)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        shape = {"path": f"{tmp}/roundtrip.sion", "payload_bytes": MICRO_PAYLOAD_BYTES}
        write_s, _ = write_cycle(
            backend, MICRO_NTASKS, "threads", chunksize=MICRO_CHUNK, nfiles=2, **shape
        )
        read_s, _ = read_cycle(backend, MICRO_NTASKS, MICRO_NTASKS, "threads", **shape)
    bytes_total = MICRO_NTASKS * MICRO_PAYLOAD_BYTES
    metrics = {
        "write_wall_s": Metric(write_s, better="info"),
        "read_wall_s": Metric(read_s, better="info"),
        "write_mb_s": Metric(bytes_total / write_s / 1e6, "MB/s", "info"),
    }
    text = (
        f"{MICRO_NTASKS} tasks x {MICRO_PAYLOAD_BYTES // KiB} KiB, 2 physical "
        f"files: write {write_s * 1e3:.1f} ms, read {read_s * 1e3:.1f} ms"
    )
    return ScenarioOutput(metrics=metrics, text=text)


def build_metablock(ntasks: int = 4096):
    """A populated metablock 1 — built outside any timed region."""
    from repro.sion.format import Metablock1

    return Metablock1(
        fsblksize=2 << 20,
        ntasks_local=ntasks,
        nfiles=1,
        filenum=0,
        ntasks_global=ntasks,
        start_of_data=2 << 20,
        metablock2_offset=0,
        globalranks=list(range(ntasks)),
        chunksizes=[1 << 20] * ntasks,
    )


def metablock_roundtrip(mb1):
    """Encode+decode of one metablock 1 (the open/close hot path)."""
    from repro.backends.simfs_backend import SimBackend
    from repro.sion.format import Metablock1

    with SimBackend().open("/mb1", "w+b") as f:
        f.pwrite(0, mb1.encode())
        return Metablock1.decode_from(f)


@scenario(
    "micro/metablock-roundtrip",
    suite="full",
    tags=("micro", "wallclock"),
    params={"ntasks": 4096, "rounds": 5},
)
def micro_metablock(ctx) -> ScenarioOutput:
    ntasks, rounds = ctx.params["ntasks"], ctx.params["rounds"]
    mb1 = build_metablock(ntasks)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = metablock_roundtrip(mb1)
        best = min(best, time.perf_counter() - t0)
    if out.ntasks_local != ntasks:
        raise AssertionError("metablock roundtrip corrupted the task count")
    metrics = {"best_roundtrip_s": Metric(best, better="info")}
    text = f"{ntasks}-task metablock encode+decode: best of {rounds} = {best * 1e3:.2f} ms"
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# core-io — copy/backend-call counts of the zero-copy vectored data plane
# (registered on import, like everything above) — plus the scale suite's
# control-plane scenarios (4k-256k tasks on the bulk SPMD engine), the
# collective suite's collector-rank aggregation scenarios (4k-64k tasks),
# and the serve suite's read-gateway session-load scenarios.

import repro.bench.collective  # noqa: E402,F401
import repro.bench.core_io  # noqa: E402,F401
import repro.bench.repartition  # noqa: E402,F401
import repro.bench.resilience  # noqa: E402,F401
import repro.bench.scale  # noqa: E402,F401
import repro.bench.serve  # noqa: E402,F401
