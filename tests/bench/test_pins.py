"""The in-scenario pins still bite, and ``record`` round-trips.

The grid suites gate through assertions inside the scenarios, not through
baselines, so these tests break one formula per family at a size tier-1
can afford (256 tasks via ``param_overrides``) and check that the
scenario's ``error`` names the pin — through ``run_suite`` (what
``python -m repro.bench run`` reports) and through ``Scenario.execute``
(what ``benchmarks/bench_scenarios.py`` raises), in the same words.
"""

import dataclasses
import json

import pytest

from repro.bench import (
    BenchReport,
    collective,
    compare_reports,
    get_scenario,
    iter_scenarios,
    record_suite,
    repartition,
    run_suite,
    scale,
)
from repro.bench.cli import main
from repro.errors import ReproError
from repro.sion.mapping import physical_path

SMALL = {"ntasks": 256, "nwriters": 256}


def _break_collective(monkeypatch):
    monkeypatch.setattr(collective, "METADATA_WRITES_PER_FILE", 4)


def _break_repartition(monkeypatch):
    monkeypatch.setattr(repartition, "metadata_reads", lambda nfiles: 8 * nfiles + 5)


def _break_resilience(monkeypatch):
    """Flip one byte of the restored file before the scenario hashes it."""
    import repro.sion

    real = repro.sion.recover_multifile

    def recover_then_corrupt(path, backend):
        report = real(path, backend=backend)
        f = backend.open(physical_path(path, 1), "r+b")
        try:
            f.pwrite(0, bytes([f.pread(0, 1)[0] ^ 0xFF]))
        finally:
            f.close()
        return report

    monkeypatch.setattr(repro.sion, "recover_multifile", recover_then_corrupt)


MUTATIONS = [
    ("collective", "collective/write-wave[ntasks=4096]", _break_collective,
     "total backend write calls: expected exactly"),
    ("repartition", "repartition/read[nwriters=4096]", _break_repartition,
     "total backend read calls: expected exactly"),
    ("resilience", "resilience/buddy-restore[ntasks=4096]", _break_resilience,
     "post-recovery content hashes: expected exactly"),
]


def _run_small(suite, name):
    report = run_suite(suite=suite, pattern=name, param_overrides=SMALL)
    (result,) = report.scenarios.values()
    return result


@pytest.mark.parametrize("suite,name,mutate,words", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_broken_formula_fails_the_scenario_by_name(suite, name, mutate, words, monkeypatch):
    assert _run_small(suite, name).error is None  # the pin holds on the real code
    mutate(monkeypatch)
    assert words in _run_small(suite, name).error
    sc = get_scenario(name)
    small = dataclasses.replace(sc, params={**sc.params, **SMALL})
    with pytest.raises(AssertionError, match=words):
        small.execute()


def test_cli_run_exits_1_on_a_broken_pin(tmp_path, monkeypatch, capsys):
    _break_repartition(monkeypatch)
    name = "repartition/read[nwriters=4096]"
    out = tmp_path / "r.json"
    code = main(["run", "--suite", "repartition", "--filter", name, "-o", str(out), "-q"])
    assert code == 1
    assert "total backend read calls: expected exactly" in capsys.readouterr().err
    assert BenchReport.load(out).scenarios[name].error is not None


def test_geometry_closed_form_is_anchored():
    # The numbers the pre-bulk-engine control plane wrote for 4096 tasks;
    # every grid suite pins its layout against this closed form.
    assert scale.expected_geometry(4096, 4096, 4096) == (69632, 16846848)
    assert {"4096", "16384", "65536", "262144"} <= set(scale._hash_pins())


def test_record_round_trips_full_report_ci_slice_and_sidecars(tmp_path):
    written = record_suite("repartition", tmp_path, param_overrides=SMALL)
    assert sorted(p.name for p in written) == [
        "repartition.json", "repartition.meta.json",
        "repartition_ci.json", "repartition_ci.meta.json",
    ]
    full = BenchReport.load(tmp_path / "repartition.json")
    ci = BenchReport.load(tmp_path / "repartition_ci.json")
    registered = list(iter_scenarios(suite="repartition"))
    assert set(full.scenarios) == {sc.name for sc in registered}
    assert set(ci.scenarios) == {sc.name for sc in registered if "ci-grid" in sc.tags}
    assert len(ci.scenarios) < len(full.scenarios)
    # One run, sliced: the ci file is the full file's entries verbatim.
    assert all(full.scenarios[n] == r for n, r in ci.scenarios.items())
    assert compare_reports(full, ci).passed
    for name in ("repartition", "repartition_ci"):
        meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
        assert meta["artifact"] == f"{name}.json"
        assert meta["command"] == "python -m repro.bench record --suite repartition"
        assert meta["git_sha"] == full.git_sha and meta["created"] == full.created
        assert meta["environment"] == full.environment


def test_record_refuses_an_errored_run(tmp_path, monkeypatch):
    _break_repartition(monkeypatch)
    with pytest.raises(ReproError, match="(?s)refusing to record .* total backend read calls"):
        record_suite("repartition", tmp_path, param_overrides=SMALL)
    assert list(tmp_path.iterdir()) == []


def test_record_refuses_a_suite_that_would_gate_nothing(tmp_path):
    # resilience reports host clock only; its pins are its gate.
    with pytest.raises(ReproError, match="would gate nothing"):
        record_suite("resilience", tmp_path, param_overrides=SMALL)
    assert list(tmp_path.iterdir()) == []
