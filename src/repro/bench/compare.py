"""Regression gate: diff a candidate run against a committed baseline.

Gated metrics are deterministic (simulated seconds, geometry bytes, hit
rates, retained-object counts), so any drift at all is a real behavior
change; the default threshold exists only to leave headroom for benign
float noise from refactorings and across Python versions.  Host-clock
(``better="info"``) metrics are reported, never gated — and a baseline
that holds nothing else is refused rather than vacuously passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.bench.results import BenchReport
from repro.errors import ReproError

#: Default maximum tolerated relative regression (5%).
DEFAULT_THRESHOLD = 0.05

#: Delta statuses that fail the gate.
FAILING = (
    "regression",
    "missing-scenario",
    "missing-metric",
    "scenario-error",
    "baseline-error",
    "direction-mismatch",
)


@dataclass(frozen=True)
class MetricDelta:
    """One compared quantity (or a structural problem found on the way)."""

    scenario: str
    metric: str
    status: str  # ok|regression|improvement|new|missing-*|scenario-error|info
    baseline: float | None = None
    candidate: float | None = None
    rel_change: float | None = None
    unit: str = ""

    @property
    def failed(self) -> bool:
        return self.status in FAILING

    def describe(self) -> str:
        where = f"{self.scenario} :: {self.metric}" if self.metric else self.scenario
        if self.status == "new":
            return f"{where}: new (not in baseline, not gated)"
        if self.status == "missing-scenario":
            return f"{where}: scenario present in baseline but absent from candidate"
        if self.status == "missing-metric":
            return f"{where}: metric present in baseline but absent from candidate"
        if self.status == "scenario-error":
            return f"{where}: scenario errored in the candidate run"
        if self.status == "baseline-error":
            return (
                f"{where}: baseline entry was recorded from an errored run — "
                "refresh the baseline from a clean run"
            )
        if self.status == "direction-mismatch":
            return (
                f"{where}: gating direction differs between baseline and "
                "candidate — refresh the baseline"
            )
        change = (
            f"{self.rel_change:+.2%}" if self.rel_change is not None else "n/a"
        )
        return (
            f"{where}: {self.baseline:g} -> {self.candidate:g} {self.unit} "
            f"({change})"
        )


def gated_metric_count(report: BenchReport) -> int:
    """How many metrics of ``report`` a comparison against it would gate."""
    return sum(
        m.better != "info"
        for sc in report.scenarios.values()
        for m in sc.metrics.values()
    )


def _relative_change(base: float, cand: float) -> float:
    if base == cand:
        return 0.0
    if base == 0:
        return math.inf if cand > 0 else -math.inf
    return (cand - base) / abs(base)


@dataclass
class ComparisonResult:
    """Every delta between two reports plus the gate verdict."""

    threshold: float
    deltas: list[MetricDelta] = field(default_factory=list)

    @property
    def failures(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.failed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for d in self.deltas:
            out[d.status] = out.get(d.status, 0) + 1
        return out

    def format_report(self, max_rows: int = 30) -> str:
        counts = self.counts()
        lines = [
            f"bench compare: threshold {self.threshold:.1%} — "
            + ("PASS" if self.passed else "FAIL"),
            "  "
            + "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            + (f"  (total {len(self.deltas)} comparisons)" if self.deltas else ""),
        ]
        failures = self.failures
        if failures:
            lines.append("")
            lines.append(f"failures ({len(failures)}):")
            lines.extend(f"  - {d.describe()}" for d in failures[:max_rows])
            if len(failures) > max_rows:
                lines.append(f"  ... and {len(failures) - max_rows} more")
        improvements = [d for d in self.deltas if d.status == "improvement"]
        if improvements:
            lines.append("")
            lines.append(f"improvements ({len(improvements)}):")
            lines.extend(
                f"  + {d.describe()}"
                for d in sorted(
                    improvements, key=lambda d: abs(d.rel_change or 0), reverse=True
                )[:10]
            )
        news = [d for d in self.deltas if d.status == "new"]
        if news:
            lines.append("")
            lines.append(
                "new (not in baseline, not gated): "
                + ", ".join(sorted({d.scenario for d in news}))
            )
        return "\n".join(lines)


def compare_reports(
    candidate: BenchReport,
    baseline: BenchReport,
    threshold: float = DEFAULT_THRESHOLD,
) -> ComparisonResult:
    """Gate ``candidate`` against ``baseline``.

    Fails on any gated metric regressing beyond ``threshold``, on
    scenarios or metrics that disappeared, and on scenarios that errored.
    New scenarios/metrics only present in the candidate are reported as
    ``new`` and do not fail the gate (they enter it once the baseline is
    refreshed).  Non-finite candidate values always gate as regressions,
    and mixing suites or schema versions (swapped arguments, a filtered
    run against a full baseline) is an operator error, not a comparison.
    So is a baseline without a single gated metric: every comparison
    against it would pass, which is the vacuous pass refused for errored
    baseline entries below.
    """
    if candidate.suite != baseline.suite:
        raise ReproError(
            f"suite mismatch: candidate is {candidate.suite!r}, "
            f"baseline is {baseline.suite!r}"
        )
    if candidate.schema_version != baseline.schema_version:
        raise ReproError(
            f"schema version mismatch: candidate v{candidate.schema_version}, "
            f"baseline v{baseline.schema_version}"
        )
    if not gated_metric_count(baseline):
        raise ReproError(
            "baseline gates nothing: it holds no metric other than "
            "better='info' ones, so every comparison against it would pass"
        )
    result = ComparisonResult(threshold=threshold)
    for name, base_sc in sorted(baseline.scenarios.items()):
        cand_sc = candidate.scenarios.get(name)
        if base_sc.error is not None:
            # An errored baseline entry has no metrics, so every candidate
            # metric would fall in the ungated "new" bucket and the
            # scenario could never regress; refuse the vacuous pass.
            result.deltas.append(MetricDelta(name, "", "baseline-error"))
            continue
        if cand_sc is None:
            result.deltas.append(MetricDelta(name, "", "missing-scenario"))
            continue
        if cand_sc.error is not None:
            result.deltas.append(MetricDelta(name, "", "scenario-error"))
            continue
        for mname, base_m in sorted(base_sc.metrics.items()):
            cand_m = cand_sc.metrics.get(mname)
            if cand_m is None:
                if base_m.better != "info":
                    result.deltas.append(MetricDelta(name, mname, "missing-metric"))
                continue
            if cand_m.better != base_m.better:
                # Gating with the stale baseline direction would invert the
                # verdict, and an info->gated promotion would silently skip
                # gating; either way, force a baseline refresh.  This check
                # runs before the info skip so promotions are not ignored.
                result.deltas.append(MetricDelta(name, mname, "direction-mismatch"))
                continue
            if base_m.better == "info":
                continue
            rel = _relative_change(base_m.value, cand_m.value)
            worse = rel if base_m.better == "lower" else -rel
            if not math.isfinite(worse) or worse > threshold:
                # NaN compares False against any threshold and +/-inf
                # would read as a spectacular improvement; any non-finite
                # drift is a defect, so it fails the gate.
                status = "regression"
            elif worse < -threshold:
                status = "improvement"
            else:
                status = "ok"
            result.deltas.append(
                MetricDelta(
                    scenario=name,
                    metric=mname,
                    status=status,
                    baseline=base_m.value,
                    candidate=cand_m.value,
                    rel_change=rel,
                    unit=base_m.unit,
                )
            )
        for mname in sorted(set(cand_sc.metrics) - set(base_sc.metrics)):
            if cand_sc.metrics[mname].better != "info":
                result.deltas.append(MetricDelta(name, mname, "new"))
    for name in sorted(set(candidate.scenarios) - set(baseline.scenarios)):
        # A brand-new scenario is ungated, but one that errored must still
        # fail — otherwise an always-broken scenario slips into the next
        # baseline refresh unnoticed.
        status = "scenario-error" if candidate.scenarios[name].error else "new"
        result.deltas.append(MetricDelta(name, "", status))
    return result
