"""Result containers and the ``BENCH_<suite>.json`` file format."""

from __future__ import annotations

import datetime
import json
import pathlib
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analysis.results import Series
from repro.bench.schema import SCHEMA_VERSION, validate_report
from repro.errors import ReproError


@dataclass(frozen=True)
class Metric:
    """One measured quantity of a scenario.

    ``better`` states which direction is an improvement so the comparator
    can gate without metric-specific knowledge; ``info`` metrics (wall
    clock, derived annotations) are reported but never gated.
    """

    value: float
    unit: str = "s"
    better: str = "lower"

    def to_dict(self) -> dict[str, Any]:
        return {"value": self.value, "unit": self.unit, "better": self.better}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> Metric:
        return cls(value=float(doc["value"]), unit=doc["unit"], better=doc["better"])


def coerce_metrics(metrics: Mapping[str, Metric | float]) -> dict[str, Metric]:
    """Accept plain floats (treated as lower-is-better seconds)."""
    out: dict[str, Metric] = {}
    for name, m in metrics.items():
        out[name] = m if isinstance(m, Metric) else Metric(float(m))
    return out


@dataclass
class ScenarioOutput:
    """What one scenario function returns.

    ``metrics`` feed the JSON report and the regression gate; ``text`` is
    the human-readable table/figure (what ``emit()`` persists).
    """

    metrics: dict[str, Metric] = field(default_factory=dict)
    text: str = ""

    def __post_init__(self) -> None:
        self.metrics = coerce_metrics(self.metrics)


def series_metrics(
    series: Series,
    unit: str = "s",
    better: str = "lower",
    overrides: Mapping[str, tuple[str, str]] | None = None,
) -> dict[str, Metric]:
    """Flatten a :class:`Series` into per-point metrics.

    Each curve point becomes ``"<curve>[<x_label>=<x>]"`` so a committed
    baseline gates the whole curve, not just its endpoints.  ``overrides``
    maps a curve label to its own ``(unit, better)`` for series that mix
    directions (e.g. bandwidths plus a derived penalty factor).
    """
    out: dict[str, Metric] = {}
    for label, ys in series.curves.items():
        curve_unit, curve_better = (overrides or {}).get(label, (unit, better))
        for x, y in zip(series.xs, ys):
            out[f"{label}[{series.x_label}={_format_x(x)}]"] = Metric(
                y, unit=curve_unit, better=curve_better
            )
    return out


def _format_x(x: float) -> str:
    """Full-precision x for metric keys.

    ``:g`` rounds to 6 significant digits, which mangles large task counts
    (1048576 -> '1.04858e+06') and would silently merge distinct sweep
    points that round to the same string.
    """
    return str(int(x)) if float(x).is_integer() else repr(float(x))


@dataclass
class ScenarioResult:
    """One scenario's entry in a report."""

    name: str
    suite: str
    tags: tuple[str, ...]
    params: dict[str, Any]
    metrics: dict[str, Metric]
    wall_s: float
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "tags": list(self.tags),
            "params": dict(self.params),
            "metrics": {k: m.to_dict() for k, m in self.metrics.items()},
            "wall_s": self.wall_s,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, name: str, doc: Mapping[str, Any]) -> ScenarioResult:
        return cls(
            name=name,
            suite=doc["suite"],
            tags=tuple(doc["tags"]),
            params=dict(doc["params"]),
            metrics={k: Metric.from_dict(m) for k, m in doc["metrics"].items()},
            wall_s=float(doc["wall_s"]),
            error=doc["error"],
        )


def git_sha(cwd: str | pathlib.Path | None = None) -> str:
    """HEAD commit for provenance stamps (``"unknown"`` outside a repo).

    With no explicit ``cwd``, tries the process CWD first (the checkout
    the user is actually benchmarking) and falls back to the package
    location (so an editable install still resolves when invoked from a
    directory outside any repo).  CWD comes first because a non-editable
    install may physically live inside an unrelated repo (a venv under
    some project tree), whose HEAD would be actively wrong provenance.
    """
    if cwd is not None:
        candidates = [cwd]
    else:
        candidates = [pathlib.Path.cwd(), pathlib.Path(__file__).resolve().parent]
    for where in candidates:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=where,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if out.returncode == 0:
            return out.stdout.strip()
    return "unknown"


def utc_now_iso() -> str:
    """Current UTC time, second resolution, ISO-8601 with offset."""
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def environment_fingerprint() -> dict[str, str]:
    """Enough about the host to interpret (non-)reproducibility."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy ships with the repo image
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "argv0": pathlib.Path(sys.argv[0]).name if sys.argv else "",
    }


@dataclass
class BenchReport:
    """A full suite run: metadata plus every scenario's result."""

    suite: str
    scenarios: dict[str, ScenarioResult] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION
    created: str = field(default_factory=utc_now_iso)
    git_sha: str = field(default_factory=git_sha)
    environment: dict[str, str] = field(default_factory=environment_fingerprint)

    def add(self, result: ScenarioResult) -> None:
        if result.name in self.scenarios:
            raise ReproError(f"duplicate scenario result {result.name!r}")
        self.scenarios[result.name] = result

    @property
    def failed(self) -> list[ScenarioResult]:
        return [r for r in self.scenarios.values() if r.error is not None]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "created": self.created,
            "git_sha": self.git_sha,
            "environment": dict(self.environment),
            "scenarios": {
                name: r.to_dict() for name, r in sorted(self.scenarios.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> BenchReport:
        problems = validate_report(doc)
        if problems:
            raise ReproError(
                "invalid bench report: " + "; ".join(problems[:5])
                + (f" (+{len(problems) - 5} more)" if len(problems) > 5 else "")
            )
        return cls(
            suite=doc["suite"],
            schema_version=doc["schema_version"],
            created=doc["created"],
            git_sha=doc["git_sha"],
            environment=dict(doc["environment"]),
            scenarios={
                name: ScenarioResult.from_dict(name, entry)
                for name, entry in doc["scenarios"].items()
            },
        )

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        doc = self.to_dict()
        problems = validate_report(doc)
        if problems:
            raise ReproError(
                "refusing to save invalid bench report: " + "; ".join(problems[:5])
            )
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
        return path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> BenchReport:
        path = pathlib.Path(path)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            raise ReproError(f"no such result file: {path}") from None
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path} is not valid JSON: {exc}") from None
        return cls.from_dict(doc)
