"""Comparator/gate: regressions fail, improvements pass, structure checked."""

import pytest

from repro.bench import BenchReport, Metric, ScenarioResult, compare_reports
from repro.bench.compare import _relative_change
from repro.errors import ReproError


def _report(metrics: dict[str, Metric], name: str = "s", error: str | None = None):
    rep = BenchReport(suite="smoke")
    rep.add(
        ScenarioResult(
            name=name,
            suite="smoke",
            tags=(),
            params={},
            metrics=metrics,
            wall_s=0.01,
            error=error,
        )
    )
    return rep


def test_identical_reports_pass():
    base = _report({"cost_s": Metric(10.0)})
    result = compare_reports(base, base, threshold=0.0)
    assert result.passed
    assert [d.status for d in result.deltas] == ["ok"]


def test_regression_on_lower_better_metric_fails():
    base = _report({"cost_s": Metric(10.0)})
    cand = _report({"cost_s": Metric(11.2)})  # +12%
    result = compare_reports(cand, base, threshold=0.10)
    assert not result.passed
    (delta,) = result.failures
    assert delta.status == "regression"
    assert delta.rel_change == pytest.approx(0.12)
    assert "cost_s" in result.format_report()


def test_improvement_passes_the_gate():
    base = _report({"cost_s": Metric(10.0)})
    cand = _report({"cost_s": Metric(7.0)})
    result = compare_reports(cand, base, threshold=0.10)
    assert result.passed
    assert [d.status for d in result.deltas] == ["improvement"]
    assert "improvements" in result.format_report()


def test_higher_better_metric_gates_on_drops():
    base = _report({"bw": Metric(6000.0, "MB/s", "higher")})
    worse = _report({"bw": Metric(5000.0, "MB/s", "higher")})
    better = _report({"bw": Metric(7000.0, "MB/s", "higher")})
    assert not compare_reports(worse, base, threshold=0.10).passed
    assert compare_reports(better, base, threshold=0.10).passed


def test_within_threshold_is_ok():
    base = _report({"cost_s": Metric(10.0)})
    cand = _report({"cost_s": Metric(10.4)})  # +4% < 5%
    result = compare_reports(cand, base)
    assert result.passed
    assert [d.status for d in result.deltas] == ["ok"]


def test_info_metrics_never_gate():
    base = _report({"cost_s": Metric(1.0), "wall_s": Metric(1.0, better="info")})
    cand = _report({"cost_s": Metric(1.0), "wall_s": Metric(50.0, better="info")})
    result = compare_reports(cand, base, threshold=0.0)
    assert result.passed
    assert [d.metric for d in result.deltas] == ["cost_s"]


def test_baseline_that_gates_nothing_is_refused():
    # A host-clock-only baseline would pass every candidate: the vacuous
    # pass the errored-entry rule below refuses, for a whole file.
    base = _report({"read_wall_s": Metric(1.0, better="info")})
    cand = _report({"read_wall_s": Metric(50.0, better="info")})
    with pytest.raises(ReproError, match="baseline gates nothing"):
        compare_reports(cand, base)
    with pytest.raises(ReproError, match="baseline gates nothing"):
        compare_reports(cand, BenchReport(suite="smoke"))


def test_missing_scenario_fails():
    base = _report({"cost_s": Metric(1.0)}, name="gone")
    cand = BenchReport(suite="smoke")
    result = compare_reports(cand, base)
    assert not result.passed
    assert result.failures[0].status == "missing-scenario"
    assert "absent from candidate" in result.failures[0].describe()


def test_missing_metric_fails():
    base = _report({"cost_s": Metric(1.0), "other_s": Metric(2.0)})
    cand = _report({"cost_s": Metric(1.0)})
    result = compare_reports(cand, base)
    assert not result.passed
    assert [d.status for d in result.failures] == ["missing-metric"]


def test_candidate_scenario_error_fails():
    base = _report({"cost_s": Metric(1.0)})
    cand = _report({}, error="Traceback ...")
    result = compare_reports(cand, base)
    assert not result.passed
    assert result.failures[0].status == "scenario-error"


def test_direction_mismatch_forces_baseline_refresh():
    # A code-side flip of a metric's direction must not gate with the
    # stale baseline sign (a regression would read as improvement).
    base = _report({"m": Metric(10.0, "s", "lower")})
    cand = _report({"m": Metric(5.0, "s", "higher")})
    result = compare_reports(cand, base)
    assert not result.passed
    assert result.failures[0].status == "direction-mismatch"
    assert "refresh the baseline" in result.failures[0].describe()


def test_info_to_gated_promotion_forces_baseline_refresh():
    # Starting to gate a previously-info metric must not be silently
    # skipped just because the stale baseline still says 'info'.
    base = _report({"cost_s": Metric(1.0), "factor": Metric(2.5, "x", "info")})
    cand = _report({"cost_s": Metric(1.0), "factor": Metric(2.5, "x", "higher")})
    result = compare_reports(cand, base)
    assert not result.passed
    assert [d.status for d in result.failures] == ["direction-mismatch"]


def test_errored_baseline_entry_cannot_vacuously_pass():
    base = _report({}, error="Traceback ...")
    cand = _report({"cost_s": Metric(1.0)})
    for rep in (base, cand):
        rep.add(
            ScenarioResult(
                name="t", suite="smoke", tags=(), params={},
                metrics={"cost_s": Metric(1.0)}, wall_s=0.0,
            )
        )
    result = compare_reports(cand, base)
    assert not result.passed
    assert result.failures[0].status == "baseline-error"
    assert "refresh the baseline" in result.failures[0].describe()


def test_candidate_only_errored_scenario_still_fails():
    base = _report({"cost_s": Metric(1.0)})
    cand = _report({"cost_s": Metric(1.0)})
    cand.add(
        ScenarioResult(
            name="brand/broken", suite="smoke", tags=(), params={},
            metrics={}, wall_s=0.0, error="Traceback ...",
        )
    )
    result = compare_reports(cand, base)
    assert not result.passed
    assert result.failures[0].status == "scenario-error"


def test_new_scenarios_and_metrics_reported_not_gated():
    base = _report({"cost_s": Metric(1.0)})
    cand = _report({"cost_s": Metric(1.0), "extra_s": Metric(9.0)})
    cand.add(
        ScenarioResult(
            name="brand/new", suite="smoke", tags=(), params={},
            metrics={"x": Metric(1.0)}, wall_s=0.0,
        )
    )
    result = compare_reports(cand, base)
    assert result.passed
    assert sorted(d.status for d in result.deltas) == ["new", "new", "ok"]
    assert "not gated" in result.format_report()


def test_nan_candidate_gates_as_regression():
    base = _report({"cost_s": Metric(5.0)})
    cand = _report({"cost_s": Metric(float("nan"))})
    result = compare_reports(cand, base)
    assert not result.passed
    assert result.failures[0].status == "regression"


def test_infinite_candidate_is_never_an_improvement():
    # +inf on higher-better (and -inf on lower-better) would otherwise
    # read as a spectacular improvement; both must fail the gate.
    base = _report({"bw": Metric(6000.0, "MB/s", "higher")})
    cand = _report({"bw": Metric(float("inf"), "MB/s", "higher")})
    assert not compare_reports(cand, base).passed


def test_suite_mismatch_is_an_operator_error():
    base = _report({"cost_s": Metric(1.0)})
    cand = _report({"cost_s": Metric(1.0)})
    cand.suite = "full"
    with pytest.raises(ReproError, match="suite mismatch"):
        compare_reports(cand, base)


def test_schema_version_mismatch_rejected():
    base = _report({"cost_s": Metric(1.0)})
    cand = _report({"cost_s": Metric(1.0)})
    cand.schema_version = base.schema_version + 1
    with pytest.raises(ReproError, match="schema version mismatch"):
        compare_reports(cand, base)


def test_relative_change_handles_zero_baseline():
    assert _relative_change(0.0, 0.0) == 0.0
    assert _relative_change(0.0, 1.0) == float("inf")
    base = _report({"cost_s": Metric(0.0)})
    cand = _report({"cost_s": Metric(0.001)})
    assert not compare_reports(cand, base).passed
