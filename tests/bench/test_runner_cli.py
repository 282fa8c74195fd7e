"""Runner and CLI: suite execution, JSON output, gate exit codes."""

import json
import pathlib

import pytest

from repro.bench import BenchReport, Metric, Registry, validate_report
from repro.bench.cli import main
from repro.bench.runner import run_suite
from repro.errors import ReproError

#: Cheap built-in scenarios (model-only, no event simulation) the CLI
#: tests can run end-to-end in milliseconds.
FAST_FILTER = "extrapolation/*"


def test_run_suite_with_private_registry_records_errors():
    reg = Registry()

    @reg.scenario("good")
    def good(ctx):
        return {"cost_s": 1.0}

    @reg.scenario("bad")
    def bad(ctx):
        raise ValueError("boom")

    report = run_suite(suite="smoke", registry=reg)
    assert report.scenarios["good"].error is None
    assert report.scenarios["good"].metrics["cost_s"].value == 1.0
    assert "wall_s" in report.scenarios["good"].metrics
    assert "boom" in report.scenarios["bad"].error
    assert [r.name for r in report.failed] == ["bad"]
    assert validate_report(report.to_dict()) == []


def test_run_suite_reserved_wall_s_metric_is_an_error():
    reg = Registry()

    @reg.scenario("clash")
    def clash(ctx):
        return {"wall_s": 3.0}

    report = run_suite(registry=reg)
    res = report.scenarios["clash"]
    assert "reserved metric" in res.error
    # the harness wall clock remains, ungated
    assert res.metrics["wall_s"].better == "info"


def test_run_suite_non_finite_metrics_become_scenario_errors(tmp_path):
    reg = Registry()

    @reg.scenario("nan-metric")
    def nan_metric(ctx):
        return {"cost_s": float("nan")}

    @reg.scenario("healthy")
    def healthy(ctx):
        return {"cost_s": 1.0}

    @reg.scenario("typo-direction")
    def typo_direction(ctx):
        return {"cost_s": Metric(1.0, better="high")}  # not a valid direction

    report = run_suite(registry=reg)
    assert "finite" in report.scenarios["nan-metric"].error
    assert "better must be one of" in report.scenarios["typo-direction"].error
    assert report.scenarios["healthy"].error is None
    # one bad scenario must not discard the whole run's output
    report.save(tmp_path / "r.json")
    assert BenchReport.load(tmp_path / "r.json").scenarios["healthy"].metrics


def test_run_suite_rejects_empty_selection():
    with pytest.raises(ReproError, match="no scenarios selected"):
        run_suite(suite="smoke", registry=Registry())


def test_run_suite_jsonable_params():
    reg = Registry()

    @reg.scenario("p", params={"counts": [1, 2], "obj": object()})
    def fn(ctx):
        return {"cost_s": 1.0}

    doc = run_suite(registry=reg).to_dict()
    params = doc["scenarios"]["p"]["params"]
    assert params["counts"] == [1, 2]
    assert isinstance(params["obj"], str)
    json.dumps(doc)  # fully serializable


def test_run_suite_param_overrides_only_where_declared():
    reg = Registry()

    @reg.scenario("spmd", params={"engine": "bulk", "n": 2})
    def spmd(ctx):
        return {"cost_s": 1.0 if ctx.params["engine"] == "threads" else 2.0}

    @reg.scenario("engineless", params={"n": 3})
    def engineless(ctx):
        assert "engine" not in ctx.params
        return {"cost_s": 1.0}

    report = run_suite(registry=reg, param_overrides={"engine": "threads"})
    # The override reached the scenario body and the recorded params.
    assert report.scenarios["spmd"].metrics["cost_s"].value == 1.0
    assert report.scenarios["spmd"].params["engine"] == "threads"
    assert report.scenarios["engineless"].error is None
    assert "engine" not in report.scenarios["engineless"].params


def test_cli_run_engine_override(tmp_path):
    out = tmp_path / "r.json"
    assert (
        main(
            [
                "run",
                "--suite",
                "scale",
                "--filter",
                "scale/taskbw[workers=1]",
                "--engine",
                "threads",
                "-o",
                str(out),
                "-q",
            ]
        )
        == 0
    )
    report = BenchReport.load(out)
    assert report.scenarios["scale/taskbw[workers=1]"].params["engine"] == "threads"


def test_cli_run_rejects_unknown_engine(tmp_path, capsys):
    code = main(["run", "--engine", "nope", "-o", str(tmp_path / "x.json"), "-q"])
    assert code == 2
    assert "unknown SPMD engine" in capsys.readouterr().err


def test_cli_list_and_filter(capsys):
    assert main(["list", "--filter", FAST_FILTER]) == 0
    out = capsys.readouterr().out
    assert "extrapolation/create[system=jugene]" in out
    assert "fig3" not in out
    assert main(["list", "--filter", "no-such-scenario*"]) == 1
    # bracketed grid names select themselves despite fnmatch's [..] syntax
    assert main(["list", "--filter", "extrapolation/create[system=jugene]"]) == 0


def test_cli_list_json_empty_also_exits_nonzero(capsys):
    assert main(["list", "--json", "--filter", "no-such-scenario*"]) == 1
    assert json.loads(capsys.readouterr().out) == []


def test_cli_list_json(capsys):
    assert main(["list", "--json", "--tag", "model"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["name"] for r in rows} == {
        "extrapolation/create[system=jugene]",
        "extrapolation/create[system=jaguar]",
        "scale/contention-sweep[ntasks=1048576]",
    }


def test_cli_run_and_compare_roundtrip(tmp_path, capsys):
    out = tmp_path / "BENCH_smoke.json"
    assert main(["run", "--filter", FAST_FILTER, "-o", str(out), "-q"]) == 0
    report = BenchReport.load(out)
    assert len(report.scenarios) == 2
    assert validate_report(json.loads(out.read_text())) == []

    # identical candidate vs. baseline: gate passes
    assert main(["compare", str(out), str(out)]) == 0
    assert "PASS" in capsys.readouterr().out

    # inflate one simulated cost by 12%: gate fails at the 10% threshold
    doc = json.loads(out.read_text())
    name = "extrapolation/create[system=jugene]"
    metrics = doc["scenarios"][name]["metrics"]
    key = next(k for k in metrics if metrics[k]["better"] == "lower")
    metrics[key]["value"] *= 1.12
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["compare", str(bad), str(out), "--threshold", "0.10"]) == 1
    assert "regression" in capsys.readouterr().out

    # an improvement of the same size passes
    metrics[key]["value"] /= 1.12**2
    bad.write_text(json.dumps(doc))
    assert main(["compare", str(bad), str(out), "--threshold", "0.10"]) == 0


def test_cli_run_without_quiet_reports_progress_on_stderr(tmp_path, capsys):
    out = tmp_path / "BENCH_smoke.json"
    assert main(["run", "--filter", FAST_FILTER, "-o", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    names = sorted(BenchReport.load(out).scenarios)
    assert len(names) == 2
    assert sorted(line for line in err if line.startswith("running ")) == [
        f"running {name} ..." for name in names
    ]
    assert all(any(line.startswith(f"  {name}: ok (") for line in err) for name in names)


def test_cli_compare_json_output(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["run", "--filter", FAST_FILTER, "-o", str(out), "-q"]) == 0
    capsys.readouterr()
    assert main(["compare", str(out), str(out), "--json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["passed"] is True
    assert verdict["failures"] == []


def test_cli_exits_quietly_when_stdout_is_closed():
    # ``python -m repro.bench compare ... | head -3``: the reader leaves
    # while the report is still being printed.  Closing the read end
    # before the child starts makes its first flush hit EPIPE.
    import os
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bench", "list"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_cli_record_dispatches_and_reports_refusal(tmp_path, capsys, monkeypatch):
    # The recorder itself is exercised at small scale in test_pins.py;
    # here only the CLI glue: arguments through, paths out, refusal -> 2.
    from repro.bench import cli

    calls = []

    def fake_record(suite, out_dir, progress=None):
        calls.append((suite, out_dir, progress))
        return [tmp_path / f"{suite}.json"]

    monkeypatch.setattr(cli, "record_suite", fake_record)
    assert main(["record", "--suite", "serve", "-o", str(tmp_path), "-q"]) == 0
    assert calls == [("serve", str(tmp_path), None)]
    assert f"wrote {tmp_path / 'serve.json'}" in capsys.readouterr().out

    def refuse(suite, out_dir, progress=None):
        raise ReproError("refusing to record resilience.json: it would gate nothing")

    monkeypatch.setattr(cli, "record_suite", refuse)
    assert main(["record", "--suite", "resilience"]) == 2
    assert "would gate nothing" in capsys.readouterr().err


def test_cli_compare_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert "no such result file" in capsys.readouterr().err


def test_committed_smoke_baseline_is_schema_valid():
    baseline = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "baselines"
        / "smoke.json"
    )
    doc = json.loads(baseline.read_text())
    assert validate_report(doc) == []
    report = BenchReport.from_dict(doc)
    assert report.suite == "smoke"
    assert len(report.scenarios) >= 15
    # the baseline gates simulated costs, not wall clock
    gated = [
        m
        for sc in report.scenarios.values()
        for m in sc.metrics.values()
        if m.better != "info"
    ]
    assert len(gated) >= 100
    assert all(isinstance(m, Metric) for m in gated)
