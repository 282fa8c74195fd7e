#!/usr/bin/env python3
"""Paired parent/change ``perfbench`` runs, with the claim rule applied.

Usage (inside the repository)::

    python tools/pairs.py PARENT CHANGE [--workload W] [--pairs N] [--seed S]
                          [--setup-only-rounds M]

PARENT and CHANGE are revisions of the git repository in the current
directory.  Each is exported with ``git archive`` into a fresh directory
under the system temporary directory (``/tmp``), so neither side carries
a ``__pycache__``, worktree state or ``.git``; the runs set
``PYTHONDONTWRITEBYTECODE=1``, so neither side writes a ``__pycache__``
either, and both exports are deleted at the end.  Pair ``i`` runs
``perfbench/run.py --workload W --seed S --trace 0`` once on each side,
parent first when ``i`` is even and change first when it is odd.
``run.py`` is run as it is: the tool only reads its last line.

With ``--setup-only-rounds M`` a side's ``setup_s`` in a pair is the
median wall of ``M`` fresh ``run.py --setup-only`` processes (the command
``run.py`` itself times three times), the sides alternating round by
round; ``serve-4k``'s ``setup_s`` spreads too widely to read from three.

For every workload x end-to-end metric of CHANGE's ``BENCHMARK.json`` it
prints one line::

    ctrl-16k setup_s: 0.508 -> 0.522 s (medians of 10 pairs), parent IQR 0.031,
    wins 4/10; no claim: wins 4/10 < 9/10

(one line in the output).

A gain is claimed only when there are at least 10 pairs, the change is
better on at least 9 in 10 of them, its median beats the parent's by more
than the parent's IQR, and that IQR is within the metric's bound (a
fraction of the parent's median); otherwise the line says "no claim" and
why.  A change median worse than the parent's by more than the bound is
marked ``WORSE`` and makes the exit status 1.  A failed or incorrect run
exits 2.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: A claim needs at least this many pairs ...
MIN_PAIRS = 10
#: ... and the change better on at least this share of them.
MIN_WIN_SHARE = 0.9


def fail(message: str) -> None:
    print(f"pairs: {message}", file=sys.stderr)
    raise SystemExit(2)


def export(repo: Path, rev: str, into: Path) -> Path:
    """``rev`` of ``repo`` as plain files under ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(repo), "archive", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_py(side: Path, args: argparse.Namespace, workload: str,
           *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(side / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(args.seed), *extra]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(cmd, cwd=side, env=env, stdout=subprocess.PIPE, text=True)


def measure(side: Path, args: argparse.Namespace, workload: str) -> dict[str, float]:
    """One ``run.py --trace 0``: its end-to-end metrics."""
    done = run_py(side, args, workload, "--trace", "0")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct"):
        fail(f"{workload} on {side} failed (exit {done.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def setup_wall(side: Path, args: argparse.Namespace, workload: str) -> float:
    """The wall of one fresh ``run.py --setup-only`` process."""
    t0 = time.perf_counter()
    done = run_py(side, args, workload, "--setup-only")
    wall = time.perf_counter() - t0
    if done.returncode:
        fail(f"set-up of {workload} on {side} failed")
    return wall


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[str, bool]:
    """One table line's tail, and whether the change is worse than the bound."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    n = len(parent)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    spread, bound = iqr(parent), metric["bound"]
    gain = sign * (p_med - c_med)
    scale = abs(p_med) if p_med else 1.0
    worse = -gain > bound * scale
    head = f"parent IQR {spread:.6g}, wins {wins}/{n}"
    if parent == change:
        reason = "identical on every pair"
    elif n < MIN_PAIRS:
        reason = f"{n} pairs, a claim needs >= {MIN_PAIRS}"
    elif spread > bound * scale:
        reason = f"parent IQR {spread / scale:.1%} of its median exceeds the {bound:g} bound"
    elif wins < math.ceil(MIN_WIN_SHARE * n):
        reason = f"wins {wins}/{n} < {math.ceil(MIN_WIN_SHARE * n)}/{n}"
    elif gain <= spread:
        reason = f"median gain {gain:.6g} <= parent IQR {spread:.6g}"
    else:
        reason = None
    tail = f"{head}; " + (f"CLAIM: better by {gain:.6g}" if reason is None
                          else f"no claim: {reason}")
    if worse:
        tail += f"; WORSE: by {-gain / scale:.1%}, beyond the {bound:g} bound"
    return tail, worse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("change", help="the change revision")
    parser.add_argument("--workload", help="one workload (default: every one BENCHMARK.json names)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS, help=f"default {MIN_PAIRS}")
    parser.add_argument("--seed", type=int, default=1, help="run.py's seed (default 1)")
    parser.add_argument("--setup-only-rounds", type=int, default=0, metavar="M",
                        help="time setup_s from M --setup-only processes per side and pair")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.setup_only_rounds < 0:
        parser.error("--pairs must be >= 1 and --setup-only-rounds >= 0")

    repo = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], stdout=subprocess.PIPE,
                               text=True, check=True).stdout.strip())
    scratch = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        sides = {"parent": export(repo, args.parent, scratch / "parent"),
                 "change": export(repo, args.change, scratch / "change")}
        spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
        workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
        runs = {(w, s): [] for w in workloads for s in sides}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                for s in order:
                    runs[w, s].append(measure(sides[s], args, w))
                walls: dict[str, list[float]] = {s: [] for s in sides}
                for r in range(args.setup_only_rounds):
                    for s in order if r % 2 == 0 else order[::-1]:
                        walls[s].append(setup_wall(sides[s], args, w))
                for s in sides if args.setup_only_rounds else ():
                    runs[w, s][-1]["setup_s"] = statistics.median(walls[s])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"pairs: {args.parent} -> {args.change}, seed {args.seed}, {args.pairs} pairs, "
          f"{args.setup_only_rounds} setup-only rounds")
    any_worse = False
    for w in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r[name] for r in runs[w, "parent"]]
            change = [r[name] for r in runs[w, "change"]]
            tail, worse = verdict(metric, parent, change)
            any_worse |= worse
            print(f"{w} {name}: {statistics.median(parent):.6g} -> {statistics.median(change):.6g} "
                  f"{metric['unit']} (medians of {args.pairs} pairs), {tail}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
