"""The scripts under ``examples/`` run to completion.

Each example is executed as its own subprocess, the way a reader runs it,
with ``TMPDIR`` and the working directory pointed at the test's scratch
directory, which the example must leave empty: its files go in a
temporary directory that it removes when it ends.  ``paper_figures.py`` regenerates every figure and
takes tens of seconds; it runs in the nightly workflow instead.
"""

import os
import pathlib
import subprocess
import sys

import pytest

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
