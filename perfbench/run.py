#!/usr/bin/env python3
"""The benchmark's one command (recorded in ``BENCHMARK.json``).

``run.py --workload W --seed N --seconds S --trace 0`` measures workload ``W``
for ``S`` seconds with tracing off and prints, as its last line, one JSON
object with every end-to-end metric.  ``--trace 1`` makes a few traced reps
plus the layer probes instead and prints every per-layer metric; the spans go
to ``perfbench/out/``.  Without ``--workload`` or ``--trace`` it runs all of
them, each in a fresh subprocess.

Works from any directory with an empty environment: the library is found
from this file's own location, never from ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh processes that only set up, per run; ``setup_s`` is their median wall.
SETUP_RUNS = 3
#: Which reps of a traced run are traced.  The plain one in the middle, so that
#: neither the cold first rep nor retention that slows later reps (see
#: ``ckpt-16k``) reads as tracing overhead.
TRACE_PLAN = (True, False, True)
MiB = 1 << 20


def adopt_orphans() -> None:
    """Descendants whose parent exits re-parent to this process, not to init."""
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still waited for below


def children() -> list[int]:
    """Pids whose parent is this process (zombies too), from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    after_name = fh.read().rpartition(")")[2].split()
            except OSError:
                continue  # ended while we looked
            if int(after_name[1]) == me:
                found.append(int(entry))
    return found


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The one that outlives its work is ``multiprocessing``'s resource tracker,
    which the ``engine="proc"`` probe starts with its first ``SharedMemory``:
    it ignores SIGTERM and runs until its pipe from this process closes, that
    is until after this process is gone.  Close the pipe and reap it here;
    anything else still alive after ``grace`` seconds is killed.
    """
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()  # the standard library's own shutdown: close, then waitpid
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child is left, alive or zombie
        if pid == 0:
            if time.monotonic() > deadline:
                for straggler in children():
                    os.kill(straggler, signal.SIGKILL)
                deadline = float("inf")
            time.sleep(0.01)


def rss_mb() -> float:
    """Resident set now (``ru_maxrss`` only ever grows)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / MiB


def rss_growth(reps: list[dict]) -> float:
    return (reps[-1]["rss_mb"] - reps[0]["rss_mb"]) / max(1, len(reps) - 1)


def one_rep(wl: Any, tracer: Any) -> dict[str, Any]:
    """One cycle.  A rep that raises fails all its ops and the run continues."""
    gc.collect()  # outside the timed region; gc stays enabled inside it
    cpu0 = time.process_time()
    try:
        with tracer.span("harness.rep"):
            out = wl.rep(tracer)
    except Exception:  # noqa: BLE001 - boundary: report, count, keep measuring
        traceback.print_exc()
        out = {"failed": wl.ops_per_rep}
    out["cpu_s"] = time.process_time() - cpu0
    out["rss_mb"] = rss_mb()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ops"] = wl.ops_per_rep
    out["counts"] = tracer.counts()
    out["traced"] = tracer.recorder is not None
    return out


def child(args: argparse.Namespace, *extra: str, **popen: Any) -> subprocess.CompletedProcess:
    """This script again, in a fresh process, on the same workload/seed/scale."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
           str(args.seed), "--scale", args.scale, *extra]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, **popen)


def setup_only(args: argparse.Namespace) -> dict[str, Any]:
    """Time one fresh process that sets the workload up and exits."""
    t0 = time.perf_counter()
    done = child(args, "--setup-only", timeout=170)
    wall = time.perf_counter() - t0
    if done.returncode:
        sys.exit(f"perfbench: set-up of {args.workload} failed")
    return {"setup_s": wall, **json.loads(done.stdout.splitlines()[-1])}


def timed_run(args: argparse.Namespace, wl_cls: Any, scale: Any) -> tuple[dict, list, dict]:
    """Tracing off: every end-to-end metric, and the best-of-k walls for people."""
    from perfbench.tracing import UNTRACED

    setups = [setup_only(args) for _ in range(SETUP_RUNS)]
    wl = wl_cls(args.seed, scale)
    need = wl.warmups + scale.min_timed
    reps: list[dict] = []
    t_begin = time.perf_counter()
    while len(reps) < need or time.perf_counter() - t_begin < args.seconds:
        reps.append(one_rep(wl, UNTRACED))
    timed = [r for r in reps[wl.warmups:] if "cycle_s" in r]
    if not timed:
        sys.exit(f"perfbench: every timed rep of {wl.name} failed")
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        # After a fixed number of reps, so that retention between cycles
        # counts but the number of reps a fast machine fits in does not.
        "peak_rss_mb": reps[need - 1]["peak_rss_mb"],
        "space_amp": timed[0]["space_amp"],
        "store_meta_ops": timed[0]["store_meta_ops"],
        "store_mb": timed[0]["store_mb"],
    }
    exact = ("space_amp", "store_meta_ops", "store_mb")
    checks = {
        "space_amp and the store load repeat across reps":
            all(r[k] == timed[0][k] for r in timed for k in exact),
        "file sizes agree with ChunkLayout arithmetic":
            all(r.get("layout_agrees", True) for r in timed),
    }
    # The walls are not gated (see README, "Noise"): this box changes speed by
    # up to 1.8x for minutes at a time.  Best of the timed reps, as measured.
    # serve-4k writes its container in set-up, so it has one write wall per
    # process: this one's and the set-up-only ones'.
    writes = [r["write_s"] for r in timed] + [s["write_s"] for s in setups if s["write_s"]]
    walls = {"cycle_s": min(r["cycle_s"] for r in timed), "write_s": min(writes),
             "read_s": min(r["read_s"] for r in timed)}
    cycles = [r["cycle_s"] for r in timed]
    print(f"{wl.name}: seed {args.seed}, {len(reps)} reps ({wl.warmups} warm-up), "
          f"{wl.ops_per_rep} ops/rep, set-up median of {SETUP_RUNS} processes")
    print(f"  cycle_s over {len(cycles)} timed reps: min {min(cycles):.4f}  median "
          f"{statistics.median(cycles):.4f}  max {max(cycles):.4f}  last/first "
          f"{cycles[-1] / cycles[0]:.3f}")
    print(f"  rss growth {rss_growth(reps):.2f} MiB/rep, cpu of the best rep "
          f"{min(timed, key=lambda r: r['cycle_s'])['cpu_s']:.4f} s")
    print(f"  ungated {json.dumps(walls)}")
    return metrics, reps, checks


def traced_run(args: argparse.Namespace, wl_cls: Any, scale: Any) -> tuple[dict, list, dict]:
    """A few reps under the span recorder, then the layer probes."""
    from perfbench.probes import Probes
    from perfbench.tracing import UNTRACED, Traced

    wl = wl_cls(args.seed, scale)
    tracer = Traced()
    reps = [one_rep(wl, tracer if traced else UNTRACED) for traced in TRACE_PLAN]
    rec = tracer.recorder
    table = rec.table()
    with_spans = zip((r for r in reps if r["traced"]), table.rep_ranges())
    traced = [(r, spans) for r, spans in with_spans if "cycle_s" in r]
    plain = [r for r in reps if not r["traced"] and "cycle_s" in r]
    if not traced or not plain:
        sys.exit(f"perfbench: every traced or every untraced rep of {wl.name} failed")
    best, (lo, hi) = min(traced, key=lambda pair: pair[0]["cycle_s"])
    seconds, calls = table.self_times(lo, hi)

    def layer(prefix: str) -> float:
        return sum(s for name, s in seconds.items() if name.startswith(prefix))

    cycles = [r["cycle_s"] for r in reps if "cycle_s" in r]
    metrics: dict[str, float] = {
        "wall.cycle_s": min(r["cycle_s"] for r in plain),
        "wall.write_s": min(r["write_s"] for r in plain),
        "wall.read_s": min(r["read_s"] for r in plain),
        "trace.simmpi.self_s": layer("simmpi"),
        "trace.sion.open.self_s": layer("sion.open"),
        "trace.sion.write.self_s": layer("sion.write"),
        "trace.sion.close.self_s": layer("sion.close"),
        "trace.sion.read.self_s": layer("sion.read"),
        "trace.sion.recovery.self_s": layer("sion.recovery"),
        "trace.backends.self_s": layer("backends."),
        "trace.serve.self_s": layer("serve"),
        "trace.harness.self_s": layer("harness."),
        "trace.sion.open.calls_per_rank":
            calls.get("sion.open", 0) / wl.opens_per_rep if wl.opens_per_rep else 0.0,
        "harness.rep_median_s": statistics.median(cycles),
        "harness.rep_max_s": max(cycles),
        "harness.rep_drift": cycles[-1] / cycles[0],
        "harness.rss_growth_mb_per_rep": rss_growth(reps),
        "harness.cycle_cpu_s": min(plain, key=lambda r: r["cycle_s"])["cpu_s"],
        "harness.warmup_s": cycles[0],
        "harness.trace_overhead_ratio": best["cycle_s"] / min(r["cycle_s"] for r in plain),
    }
    metrics.update({f"backends.{name}": value for name, value in best["counts"].items()
                    if name != "tracked_fragments"})

    missing: dict[str, str] = {}
    OUT.mkdir(exist_ok=True)
    for probe in Probes(args.seed, scale, wl, OUT).all():
        try:
            metrics.update(probe())
        except Exception as exc:  # noqa: BLE001 - boundary: a probe never fails the run
            traceback.print_exc()
            missing[probe.__name__] = repr(exc)

    # Exact facts: breaking one makes the run incorrect, not slow.
    checks = {
        "backend counts repeat across traced reps":
            all(r["counts"] == best["counts"] for r, _ in traced),
        "every replica byte is a primary byte":
            metrics.get("sion.buddy.replica_bytes_ratio", 1.0) == 1.0,
        "the lost file was rebuilt from its replica":
            metrics.get("sion.recovery.files_rebuilt_from_buddy", 1) == 1,
    }
    if hasattr(wl, "copied_fragments"):
        checks["payload fragments reach the store uncopied"] = \
            best["counts"]["copied_fragments"] == wl.copied_fragments

    trace_path = OUT / f"trace-{wl.name}-{scale.name}-seed{args.seed}.json"
    per_rep = ("traced", "cycle_s", "write_s", "read_s", "cpu_s", "rss_mb", "failed")
    with open(trace_path, "w") as fh:
        json.dump({
            "workload": wl.name, "seed": args.seed, "scale": scale.name,
            "reps": [{k: r[k] for k in per_rep if k in r} for r in reps],
            "best_traced_rep_spans": [lo, hi], "metrics": metrics, "missing": missing,
            **table.to_json(),
        }, fh)
    print(f"{wl.name}: seed {args.seed}, reps "
          f"{'/'.join('traced' if r['traced'] else 'plain' for r in reps)}, "
          f"{len(rec)} spans in {trace_path.relative_to(ROOT)}")
    for probe, reason in missing.items():
        print(f"  probe {probe} could not run: {reason}")
    return metrics, reps, checks


def run_one(args: argparse.Namespace, spec: dict) -> int:
    """One workload in this process; the result is the last line printed."""
    from perfbench.workloads import SCALES, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: no workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    scale = SCALES[args.scale]
    wl_cls = WORKLOADS[args.workload]
    if args.setup_only:  # first, so that this process can never start another
        print(json.dumps({"write_s": getattr(wl_cls(args.seed, scale), "write_s", None)}))
        return 0
    run, declared = (traced_run, spec["per_layer"]) if args.trace == "1" \
        else (timed_run, spec["end_to_end"])
    metrics, reps, checks = run(args, wl_cls, scale)
    undeclared = sorted(set(metrics) - {m["name"] for m in declared})
    if undeclared:
        sys.exit(f"perfbench: metrics that BENCHMARK.json does not declare: {undeclared}")
    for m in declared:
        value = f"{metrics[m['name']]:.6g}" if m["name"] in metrics else "missing (reads 0)"
        print(f"  {m['name']:<42} {value:>16} {m['unit']}")
    for what, held in checks.items():
        if not held:
            print(f"  CHECK FAILED: {what}")
    print(f"  the run took {time.perf_counter() - T0:.1f} s")
    failed = sum(r["failed"] for r in reps)
    print(json.dumps({
        "correct": failed == 0 and all(checks.values()),
        "attempted": sum(r["ops"] for r in reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Each (workload, trace) pair in its own fresh process; one summary line."""
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    merged: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in ("0", "1") if args.trace == "both" else (args.trace,):
        for name in names:
            args.workload = name
            done = child(args, "--seconds", str(args.seconds), "--trace", trace)
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            if done.returncode:
                return done.returncode
            result = json.loads(done.stdout.splitlines()[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update(
                {f"{name}/{metric}": v for metric, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="one workload's name (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="makes every input")
    parser.add_argument("--seconds", type=float,
                        help="how long the reps run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", default="both", choices=("0", "1", "both"))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"),
                        help="smoke: 512 tasks, 2 timed reps, --seconds ignored unless given")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: the library is not at {ROOT / 'src'}; nothing to measure")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"] if args.scale == "full" else 0.0
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that ``finally`` runs
    try:
        if not args.setup_only and (args.workload == "all" or args.trace == "both"):
            return run_all(args, spec)
        return run_one(args, spec)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
