"""The scripts under ``examples/`` run to completion.

Each example is executed as its own subprocess, the way a reader runs it,
with ``TMPDIR`` and the working directory pointed at the test's scratch
directory, which the example must leave empty: its files go in a
temporary directory that it removes when it ends.  ``paper_figures.py``
prints the nine registered paper scenarios (every figure and table, each
checking its claims) and takes tens of seconds; it runs in the nightly
workflow instead, and a structure row here pins what it runs.
"""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench import get_scenario

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples"
SLOW = {"paper_figures.py"}
FAST = sorted(p.name for p in EXAMPLES.glob("*.py") if p.name not in SLOW)


def test_every_example_is_listed():
    assert len(FAST) == 6, FAST


@pytest.mark.parametrize("name", FAST)
def test_example_runs(name, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []


def _module(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_paper_figures_only_prints_the_registered_paper_scenarios():
    """Each paper figure is built, rendered and checked by its ``smoke``
    scenario alone: the example runs those nine and rebuilds nothing."""
    tree = _module(EXAMPLES / "paper_figures.py")
    listed = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets] == ["PAPER_SCENARIOS"]
    )
    names = ast.literal_eval(listed)
    assert len(names) == len(set(names)) == 9, names
    assert all(get_scenario(name).suite == "smoke" for name in names)
    imported = {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not {
        m for m in imported
        if m.split(".")[:2] in (["repro", "workloads"], ["repro", "analysis"])
    }, imported


def test_the_unused_report_path_stays_gone():
    assert importlib.util.find_spec("repro.analysis.report") is None
    bench = _module(ROOT / "benchmarks" / "bench_scenarios.py")
    names = {n.id for n in ast.walk(bench) if isinstance(n, ast.Name)}
    assert "REPORT_NAMES" not in names and "ARTIFACTS" not in names
