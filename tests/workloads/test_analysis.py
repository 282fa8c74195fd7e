"""Result containers, table formatting, ASCII charts."""

import pytest

from repro.analysis.plots import ascii_chart
from repro.analysis.results import Series, format_table, human_count
from repro.errors import ReproError


def _series():
    s = Series("fig", "tasks", "MB/s", xs=[1, 2, 4])
    s.add_curve("write", [100.0, 200.0, 400.0])
    s.add_curve("read", [150.0, 250.0, 450.0])
    return s


def test_curve_length_checked():
    s = Series("f", "x", "y", xs=[1, 2])
    with pytest.raises(ReproError):
        s.add_curve("bad", [1.0])


def test_format_table_contains_everything():
    out = format_table(_series())
    lines = out.splitlines()
    assert "tasks" in lines[0] and "write" in lines[0] and "read" in lines[0]
    assert len(lines) == 2 + 3  # header, rule, three rows
    assert "400" in lines[-1]


def test_format_table_alignment():
    out = format_table(_series())
    widths = {len(line) for line in out.splitlines()}
    assert len(widths) == 1  # all rows equal width


def test_human_count():
    assert human_count(4096) == "4k"
    assert human_count(65536) == "64k"
    assert human_count(1000) == "1000"
    assert human_count(12288) == "12k"


def test_ascii_chart_renders_markers_and_legend():
    chart = ascii_chart(_series(), width=30, height=8)
    assert "*" in chart and "+" in chart
    assert "write" in chart and "read" in chart
    assert "x: tasks" in chart


def test_ascii_chart_log_axes():
    s = Series("log", "n", "t", xs=[1, 10, 100, 1000])
    s.add_curve("c", [1.0, 10.0, 100.0, 1000.0])
    chart = ascii_chart(s, width=40, height=10, log_x=True, log_y=True)
    # On log-log a power law is a diagonal: marks on distinct rows.
    rows_with_marks = [i for i, line in enumerate(chart.splitlines()) if "*" in line]
    assert len(rows_with_marks) >= 4


def test_ascii_chart_empty():
    assert "empty" in ascii_chart(Series("e", "x", "y", xs=[]))


def test_ascii_chart_constant_curve():
    s = Series("c", "x", "y", xs=[1, 2, 3])
    s.add_curve("flat", [5.0, 5.0, 5.0])
    chart = ascii_chart(s, width=20, height=5)
    assert "*" in chart
