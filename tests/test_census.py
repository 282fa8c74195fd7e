"""The census allowlist comparator (``tools/census.py``) on fixed lists.

No census run here: the hook module ``tools/unexecuted.py`` is never
imported, only the stdlib comparator it calls at the end of a run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
_spec = importlib.util.spec_from_file_location("census", TOOLS / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

ALLOW = """\
# Functions the run may leave unentered.
src/repro/bench/serve.py _sweep  # nightly full grid only
src/repro/simmpi/comm.py Comm.abort  # error path

src/repro/sion/layout.py ChunkLayout.__eq__  # protocol
"""
MISSING = [
    "src/repro/bench/serve.py:282 _sweep",
    "src/repro/simmpi/comm.py:443 Comm.abort",
    "src/repro/sion/layout.py:90 ChunkLayout.__eq__",
]


def test_equal_lists_pass():
    assert census.compare(MISSING, ALLOW) == []


def test_an_entry_survives_a_line_shift():
    shifted = [m.replace(":282 ", ":301 ").replace(":443 ", ":12 ") for m in MISSING]
    assert census.compare(shifted, ALLOW) == []


def test_extra_entry_fails():
    problems = census.compare([*MISSING, "src/repro/fs/cache.py:10 ChunkCache.get"], ALLOW)
    assert problems == ["extra (never entered, not allowlisted): src/repro/fs/cache.py ChunkCache.get"]


def test_stale_entry_fails():
    problems = census.compare(MISSING[1:], ALLOW)
    assert problems == ["stale (entered now, still allowlisted): src/repro/bench/serve.py _sweep"]


@pytest.mark.parametrize("line", [
    "src/repro/fs/cache.py ChunkCache.get",
    "src/repro/fs/cache.py ChunkCache.get  #",
    "src/repro/fs/cache.py ChunkCache.get  # it is fine",
    "src/repro/fs/cache.py ChunkCache.get  # documented API",
    "src/repro/fs/cache.py ChunkCache.get  # observation hook:  ",
    "src/repro/fs/cache.py:10 ChunkCache  get  # error path",
    "src/repro/bench/serve.py _sweep  # error path",
])
def test_entry_without_a_reason_from_the_set_fails(line):
    missing = [*MISSING, "src/repro/fs/cache.py:10 ChunkCache.get"]
    problems = census.compare(missing, ALLOW + line + "\n")
    assert problems and problems[0].startswith("line 6: "), problems


def test_every_reason_kind_is_accepted():
    text = "".join(
        f"src/repro/m.py f{i}  # {reason}\n" for i, reason in enumerate([
            "error path", "protocol", "protocol: pickling", "nightly full grid only",
            'documented API: README "Serving sealed containers"',
            "observation hook: tests/fs/test_flows.py::test_events",
        ])
    )
    entries, errors = census.parse(text)
    assert errors == [] and len(entries) == 6


def test_check_reports_and_returns_status(tmp_path, capsys):
    allow = tmp_path / "x.allow"
    allow.write_text(ALLOW)
    assert census.check(MISSING, allow) == 0
    assert census.check(MISSING[:2], allow) == 1
    out = capsys.readouterr().out
    assert "equals" in out and "stale" in out and "differs" in out


def test_committed_allowlists_parse():
    for path in sorted(TOOLS.glob("*.allow")):
        entries, errors = census.parse(path.read_text())
        assert errors == [], (path.name, errors)
        assert entries, path.name
