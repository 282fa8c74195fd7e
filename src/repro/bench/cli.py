"""``python -m repro.bench`` — run, compare, record, and list scenarios."""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.compare import DEFAULT_THRESHOLD, compare_reports
from repro.bench.registry import SUITES, iter_scenarios
from repro.bench.results import BenchReport
from repro.bench.runner import record_suite, run_suite
from repro.errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark orchestration for the task-local-I/O reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a suite and write BENCH_<suite>.json")
    run_p.add_argument("--suite", choices=SUITES, default="smoke")
    run_p.add_argument(
        "--filter", default=None, metavar="GLOB", help="fnmatch over scenario names"
    )
    run_p.add_argument(
        "--tag",
        action="append",
        default=[],
        help="require this tag (repeatable)",
    )
    run_p.add_argument(
        "--engine",
        default=None,
        metavar="NAME",
        help=(
            "override the SPMD engine (threads|bulk|proc) "
            "for every selected scenario that has an 'engine' parameter; "
            "the report records the effective value"
        ),
    )
    run_p.add_argument(
        "-o",
        "--output",
        default=None,
        help="result file path (default: BENCH_<suite>.json)",
    )
    run_p.add_argument(
        "-q", "--quiet", action="store_true", help="suppress per-scenario progress"
    )

    cmp_p = sub.add_parser(
        "compare", help="gate a candidate result file against a baseline"
    )
    cmp_p.add_argument("candidate", help="fresh BENCH_<suite>.json")
    cmp_p.add_argument("baseline", help="committed baseline JSON")
    cmp_p.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"max tolerated relative regression (default {DEFAULT_THRESHOLD})",
    )
    cmp_p.add_argument(
        "--json", action="store_true", help="emit the deltas as JSON instead of text"
    )

    rec_p = sub.add_parser(
        "record",
        help="run a whole suite and (re)write <suite>.json, its ci-grid "
        "slice <suite>_ci.json and their .meta.json sidecars",
    )
    rec_p.add_argument("--suite", choices=SUITES, required=True)
    rec_p.add_argument(
        "-o",
        "--output",
        default="benchmarks/baselines",
        help="directory receiving the baselines (default: benchmarks/baselines)",
    )
    rec_p.add_argument(
        "-q", "--quiet", action="store_true", help="suppress per-scenario progress"
    )

    list_p = sub.add_parser("list", help="list registered scenarios")
    list_p.add_argument("--suite", choices=SUITES, default=None)
    list_p.add_argument("--filter", default=None, metavar="GLOB")
    list_p.add_argument("--tag", action="append", default=[])
    list_p.add_argument("--json", action="store_true")
    return parser


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    progress = None if args.quiet else _progress
    overrides = None
    if args.engine is not None:
        from repro.simmpi import normalize_engine

        overrides = {"engine": normalize_engine(args.engine)}
    report = run_suite(
        suite=args.suite,
        pattern=args.filter,
        tags=tuple(args.tag),
        progress=progress,
        param_overrides=overrides,
    )
    out = args.output or f"BENCH_{args.suite}.json"
    path = report.save(out)
    failed = report.failed
    print(
        f"wrote {path} ({len(report.scenarios)} scenarios, "
        f"{len(failed)} failed, git {report.git_sha[:12]})"
    )
    for res in failed:
        print(f"FAILED {res.name}:\n{res.error}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    candidate = BenchReport.load(args.candidate)
    baseline = BenchReport.load(args.baseline)
    result = compare_reports(candidate, baseline, threshold=args.threshold)
    if args.json:
        print(
            json.dumps(
                {
                    "passed": result.passed,
                    "threshold": result.threshold,
                    "counts": result.counts(),
                    "failures": [d.describe() for d in result.failures],
                },
                indent=2,
            )
        )
    else:
        print(result.format_report())
    return 0 if result.passed else 1


def _cmd_record(args: argparse.Namespace) -> int:
    progress = None if args.quiet else _progress
    for path in record_suite(args.suite, args.output, progress=progress):
        print(f"wrote {path}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": sc.name,
            "suite": sc.suite,
            "tags": list(sc.tags),
            "profile": sc.profile,
        }
        for sc in iter_scenarios(
            suite=args.suite, tags=tuple(args.tag), pattern=args.filter
        )
    ]
    if not rows:
        print("[]" if args.json else "no scenarios match")
        return 1
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        tags = ",".join(r["tags"])
        print(f"{r['name']:<{width}}  suite={r['suite']:<5}  {tags}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "record": _cmd_record,
    "list": _cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader left (``compare ... | head -3``).  Point the fd
        # at devnull so the interpreter's exit-time flush stays quiet too;
        # non-zero because the verdict may never have been delivered.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
