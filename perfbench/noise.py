#!/usr/bin/env python3
"""Does the benchmark repeat?  The same code, measured as interleaved sets.

``noise.py --sets 2 --runs 5`` runs every workload of ``BENCHMARK.json``
``runs`` times per set with tracing off (run ``i`` of every set uses seed
``i + 1``; the sets alternate, so slow drift of the machine lands on all of
them), then prints per workload and metric each set's median, the largest
relative gap between two sets' medians, the largest spread of a set (distance
between first and third quartile over the median) and the metric's bound.
Exits non-zero when a gap or a spread of an end-to-end metric exceeds its
bound: a later comparison of two commits could not tell such a metric's change
from noise.  The best-of-k walls that every run prints as ``ungated`` are
reported the same way, without a bound: they show what the box can resolve.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNGATED = "  ungated "


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload (>= 2)")
    parser.add_argument("--out", type=Path, help="also write the report here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if spec["command"][0] == "python3" else spec["command"][0],
               *spec["command"][1:]]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # values[workload][metric][set] -> one value per run
    values: dict[str, dict[str, list[list[float]]]] = {w: {} for w in names}
    incorrect = 0
    for run in range(args.runs):
        for s in range(args.sets):
            for w in names:
                done = subprocess.run(
                    [*command, "--workload", w, "--seed", str(run + 1), "--seconds",
                     str(spec["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
                lines = done.stdout.splitlines()
                result = json.loads(lines[-1])
                incorrect += not result["correct"]
                walls = next(json.loads(ln[len(UNGATED):]) for ln in lines
                             if ln.startswith(UNGATED))
                measured = {**{k: v["value"] for k, v in result["metrics"].items()}, **walls}
                for metric, value in measured.items():
                    sets = values[w].setdefault(metric, [[] for _ in range(args.sets)])
                    sets[s].append(value)
                print(f"run {run + 1}/{args.runs} set {s} {w}: cycle_s {walls['cycle_s']:.4f}",
                      flush=True)

    rows, bad = [], incorrect
    print(f"{'workload':<12} {'metric':<15} {'medians':<26} {'gap':>7} {'spread':>7} {'bound':>7}")
    for w in names:
        for metric, sets in values[w].items():
            bound = bounds.get(metric)
            medians = [statistics.median(v) for v in sets]
            gap = (max(medians) - min(medians)) / min(medians)
            spreads = [spread(v) for v in sets]
            # The set-up spread is reported but not held to the bound: it is
            # a median of a few process starts already, and only its median gates.
            ok = bound is None or (
                gap <= bound and (metric == "setup_s" or max(spreads) <= bound))
            bad += not ok
            rows.append({"workload": w, "metric": metric, "bound": bound, "medians": medians,
                         "gap": gap, "spreads": spreads, "ok": ok, "values": sets})
            print(f"{w:<12} {metric:<15} {' '.join(f'{x:.5g}' for x in medians):<26} "
                  f"{gap:>7.2%} {max(spreads):>7.2%} "
                  f"{'ungated' if bound is None else format(bound, '.1%'):>7}"
                  f"{'' if ok else '  <-- FAIL'}")
    if args.out:
        args.out.write_text(json.dumps(
            {"sets": args.sets, "runs": args.runs, "run_seconds": spec["run_seconds"],
             "incorrect_runs": incorrect, "rows": rows}, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
