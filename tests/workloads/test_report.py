"""Markdown report assembly from benchmark result files."""

import pathlib

import pytest

from repro.analysis.report import (
    ARTIFACTS,
    REGENERATE,
    collect_sections,
    render_markdown,
    write_report,
)


def _seed_results(tmp_path, names):
    for name in names:
        (tmp_path / f"{name}.txt").write_text(f"content of {name}\n")


def test_collect_marks_missing(tmp_path):
    _seed_results(tmp_path, ["fig3a_jugene", "table1_alignment"])
    sections = collect_sections(tmp_path)
    by_name = {s.name: s for s in sections}
    assert not by_name["fig3a_jugene"].missing
    assert by_name["fig3a_jugene"].body == "content of fig3a_jugene"
    assert by_name["fig4a_jugene"].missing


def test_render_contains_all_titles(tmp_path):
    _seed_results(tmp_path, [name for name, _ in ARTIFACTS])
    md = render_markdown(collect_sections(tmp_path))
    for _, title in ARTIFACTS:
        assert title in md
    assert f"{len(ARTIFACTS)}/{len(ARTIFACTS)} artifacts present" in md


def test_regenerate_hint_is_the_bench_command(tmp_path):
    # The figure benches are plain tests (no ``benchmark`` fixture), so
    # ``--benchmark-only`` would skip every one of them.
    assert REGENERATE == "pytest benchmarks/"
    sections = collect_sections(tmp_path)
    assert f"run `{REGENERATE}` to produce" in sections[0].body
    assert f"Regenerate with `{REGENERATE}`." in render_markdown(sections)
    assert "--benchmark-only" not in render_markdown(sections)


def test_write_report_roundtrip(tmp_path):
    _seed_results(tmp_path, ["fig6_mp2c"])
    out = write_report(tmp_path, tmp_path / "report.md")
    text = pathlib.Path(out).read_text()
    assert "content of fig6_mp2c" in text
    assert "MP2C" in text


def test_report_from_real_benchmark_results():
    """If the full bench suite has run, its artifacts must assemble cleanly."""
    results = pathlib.Path(__file__).parents[2] / "benchmarks" / "results"
    # A partial dir (single bench file run during development) is not a
    # suite run; only gate when enough *paper artifacts* exist to judge
    # assembly (benches also emit extra non-ARTIFACT tables).
    present = sum(
        1 for name, _ in ARTIFACTS if (results / f"{name}.txt").exists()
    ) if results.exists() else 0
    if present < 9:
        pytest.skip("full benchmark suite has not run")
    sections = collect_sections(results)
    md = render_markdown(sections)
    produced = [s for s in sections if not s.missing]
    # every produced table must actually land in the rendered report
    for section in produced:
        assert section.body in md
    assert "```" in md
