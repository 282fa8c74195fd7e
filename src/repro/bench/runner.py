"""Execute registered scenarios and collect a :class:`BenchReport`."""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import time
import traceback
from typing import Any, Callable, Mapping

from repro.bench.compare import gated_metric_count
from repro.bench.registry import Registry, ensure_builtin_scenarios
from repro.bench.results import BenchReport, Metric, ScenarioResult
from repro.bench.schema import METRIC_DIRECTIONS
from repro.errors import ReproError


def _metric_problems(metrics: dict[str, Metric]) -> list[str]:
    """Schema violations a scenario's own metrics would cause at save time."""
    problems = []
    for name, m in metrics.items():
        if not isinstance(m.value, (int, float)) or not math.isfinite(m.value):
            problems.append(f"{name}: value must be a finite number, got {m.value!r}")
        if not isinstance(m.unit, str):
            problems.append(f"{name}: unit must be a string, got {m.unit!r}")
        if m.better not in METRIC_DIRECTIONS:
            problems.append(
                f"{name}: better must be one of {METRIC_DIRECTIONS}, got {m.better!r}"
            )
    return problems


def run_suite(
    suite: str = "smoke",
    pattern: str | None = None,
    tags: tuple[str, ...] = (),
    registry: Registry | None = None,
    progress: Callable[[str], None] | None = None,
    param_overrides: Mapping[str, Any] | None = None,
) -> BenchReport:
    """Run every scenario of ``suite`` (optionally filtered) into a report.

    A scenario that raises is recorded with its traceback in ``error``
    (and an empty metrics dict) rather than aborting the suite — the CLI
    turns any error into a non-zero exit.

    ``param_overrides`` replaces parameter values per scenario, but only
    for keys the scenario already declares — a scenario with no
    ``engine`` parameter is not handed one it never reads.  The report
    records the *effective* parameters, so an overridden run is never
    mistaken for a stock one when diffed later.
    """
    registry = registry if registry is not None else ensure_builtin_scenarios()
    report = BenchReport(suite=suite)
    selected = list(registry.iter(suite=suite, tags=tags, pattern=pattern))
    if not selected:
        raise ReproError(
            f"no scenarios selected (suite={suite!r}, pattern={pattern!r}, "
            f"tags={tags!r})"
        )
    for sc in selected:
        if param_overrides:
            applicable = {
                k: v for k, v in param_overrides.items() if k in sc.params
            }
            if applicable:
                sc = dataclasses.replace(sc, params={**sc.params, **applicable})
        if progress is not None:
            progress(f"running {sc.name} ...")
        t0 = time.perf_counter()
        try:
            out = sc.execute()
            error = None
            metrics = dict(out.metrics)
        except Exception:
            error = traceback.format_exc(limit=8)
            metrics = {}
        wall = time.perf_counter() - t0
        if error is None and "wall_s" in metrics:
            # The harness owns this name; silently replacing a scenario's
            # gated metric with ungated wall clock would hide it from CI.
            error = f"scenario {sc.name!r} defines the reserved metric 'wall_s'"
            metrics = {}
        if error is None:
            # A NaN/inf value or malformed unit/direction is this scenario's
            # defect; record it here so the report still saves (schema
            # validation would reject it) instead of one bad metric
            # discarding the whole run's output.
            problems = _metric_problems(metrics)
            if problems:
                error = (
                    f"scenario {sc.name!r} produced invalid metrics: "
                    + "; ".join(problems)
                )
                metrics = {}
        metrics["wall_s"] = Metric(wall, unit="s", better="info")
        report.add(
            ScenarioResult(
                name=sc.name,
                suite=sc.suite,
                tags=sc.tags,
                params={k: _jsonable(v) for k, v in sc.params.items()},
                metrics=metrics,
                wall_s=wall,
                error=error,
            )
        )
        if progress is not None:
            status = "FAILED" if error else "ok"
            progress(f"  {sc.name}: {status} ({wall:.2f}s)")
    return report


def record_suite(
    suite: str,
    out_dir: str | pathlib.Path = "benchmarks/baselines",
    progress: Callable[[str], None] | None = None,
    param_overrides: Mapping[str, Any] | None = None,
) -> list[pathlib.Path]:
    """Run ``suite`` once and (re)write its committed baselines in ``out_dir``.

    ``<suite>.json`` is the whole run; if the suite has ``ci-grid``
    scenarios, ``<suite>_ci.json`` is that slice *of the same report*, so
    the push gate and the nightly gate cannot drift apart.  Each file gets
    a ``.meta.json`` sidecar (command, git SHA, time, environment).
    Nothing is written if a scenario errored, or if a file would gate
    nothing — ``compare`` refuses such a baseline anyway.
    """
    report = run_suite(suite=suite, progress=progress, param_overrides=param_overrides)
    if report.failed:
        raise ReproError(
            f"refusing to record suite {suite!r}, {len(report.failed)} "
            "scenario(s) errored:\n"
            + "\n".join(f"FAILED {r.name}:\n{r.error}" for r in report.failed)
        )
    targets = {f"{suite}.json": report}
    ci = {n: r for n, r in report.scenarios.items() if "ci-grid" in r.tags}
    if ci:
        targets[f"{suite}_ci.json"] = dataclasses.replace(report, scenarios=ci)
    for name, rep in targets.items():
        if not gated_metric_count(rep):
            raise ReproError(
                f"refusing to record {name}: it would gate nothing (every "
                "metric is better='info'; the suite's pins are its gate)"
            )
    out_dir = pathlib.Path(out_dir)
    written = []
    for name, rep in targets.items():
        path = rep.save(out_dir / name)
        sidecar = {
            "artifact": name,
            "command": f"python -m repro.bench record --suite {suite}",
            "git_sha": rep.git_sha,
            "created": rep.created,
            "environment": rep.environment,
        }
        meta = path.with_suffix(".meta.json")
        meta.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        written += [path, meta]
    return written


def _jsonable(value):
    """Parameters must survive a JSON round-trip; stringify anything odd."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)
