"""Benchmark orchestration: scenario registry, runner, results, gating.

The paper's evaluation is deterministic where it matters for a
reproduction (simulated seconds, closed-form backend call counts,
byte-identical multifiles).  This package turns that into a checkable
contract with one job: run the registered scenarios and fail on an
exact pin or a drifted deterministic metric.  Host time is reported and
never gated here — ``perfbench/`` is the contract that speaks about it.

``repro.bench.registry``
    ``@scenario`` decorator, parameter grids, suites and tags.
``repro.bench.scenarios``
    The built-in scenario definitions wrapping ``repro.workloads``; the
    grid suites live in ``scale`` / ``collective`` / ``repartition`` /
    ``serve`` / ``resilience`` over the shared ``scaffold`` (geometry,
    ``pin`` / ``check``, the metric policy).
``repro.bench.runner`` / ``repro.bench.results``
    Execute a suite and persist a versioned, machine-readable
    ``BENCH_<suite>.json`` (schema version, git SHA, environment
    fingerprint, per-scenario metrics); ``record_suite`` writes the
    committed baselines.
``repro.bench.compare``
    Diff a fresh run against a committed baseline and fail on
    regressions beyond a threshold — deterministic metrics make tight
    thresholds practical.
``repro.bench.cli``
    ``python -m repro.bench run|compare|record|list``.
"""

from repro.bench.compare import ComparisonResult, MetricDelta, compare_reports
from repro.bench.registry import (
    Registry,
    Scenario,
    ScenarioContext,
    get_scenario,
    iter_scenarios,
    scenario,
)
from repro.bench.results import (
    BenchReport,
    Metric,
    ScenarioOutput,
    ScenarioResult,
    environment_fingerprint,
    git_sha,
    series_metrics,
    utc_now_iso,
)
from repro.bench.runner import record_suite, run_suite
from repro.bench.schema import SCHEMA_VERSION, validate_report

__all__ = [
    "SCHEMA_VERSION",
    "BenchReport",
    "ComparisonResult",
    "Metric",
    "MetricDelta",
    "Registry",
    "Scenario",
    "ScenarioContext",
    "ScenarioOutput",
    "ScenarioResult",
    "compare_reports",
    "environment_fingerprint",
    "get_scenario",
    "git_sha",
    "iter_scenarios",
    "record_suite",
    "run_suite",
    "scenario",
    "series_metrics",
    "utc_now_iso",
    "validate_report",
]
