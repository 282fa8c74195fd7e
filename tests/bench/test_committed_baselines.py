"""Every committed baseline earns its place: valid, gating, self-consistent."""

import json
import pathlib

from repro.bench import BenchReport, validate_report
from repro.bench.compare import gated_metric_count

BASELINES = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

#: Report files: everything but the provenance sidecars and the frozen
#: multifile fingerprints (a different document, read by ``scale`` itself).
REPORTS = sorted(
    p
    for p in BASELINES.glob("*.json")
    if not p.name.endswith(".meta.json") and p.name != "scale_multifile_hashes.json"
)


def _gated(report: BenchReport) -> dict:
    return {
        (name, mname): m
        for name, sc in report.scenarios.items()
        for mname, m in sc.metrics.items()
        if m.better != "info"
    }


def test_the_directory_holds_only_reports_sidecars_and_the_fingerprints():
    assert len(REPORTS) >= 7
    for path in BASELINES.glob("*.meta.json"):
        assert path.with_name(path.name.replace(".meta.json", ".json")) in REPORTS


def test_every_baseline_is_valid_and_gates_something():
    for path in REPORTS:
        doc = json.loads(path.read_text())
        assert validate_report(doc) == [], path.name
        report = BenchReport.from_dict(doc)
        assert report.failed == [], path.name
        # A baseline exists only if it gates something: a wall-only file
        # would pass every candidate (compare refuses it outright).
        assert gated_metric_count(report) >= 1, path.name


def test_every_ci_baseline_is_the_ci_grid_slice_of_the_full_one():
    ci_paths = [p for p in REPORTS if p.stem.endswith("_ci")]
    assert ci_paths
    for ci_path in ci_paths:
        ci = BenchReport.load(ci_path)
        full = BenchReport.load(ci_path.with_name(ci_path.name.replace("_ci.json", ".json")))
        assert ci.suite == full.suite
        expected = {n for n, sc in full.scenarios.items() if "ci-grid" in sc.tags}
        assert set(ci.scenarios) == expected, ci_path.name
        assert _gated(ci) == {
            k: m for k, m in _gated(full).items() if k[0] in expected
        }, ci_path.name
