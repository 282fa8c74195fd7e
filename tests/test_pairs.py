"""``tools/pairs.py`` against a fake ``perfbench/run.py`` with fixed outputs.

The fake lives in a scratch git repository with two commits.  It logs
every call (side, workload, kind, export directory, whether the export is
clean) and prints, as its last line, the next values of its side's
``values.json``, so each pair's numbers and the expected verdicts are
known in advance.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"

FAKE_RUN = '''\
import json, os, sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(root))
import helper  # would leave a __pycache__ in the export unless bytecode writing is off

args = sys.argv[1:]
w = args[args.index("--workload") + 1]
values = json.loads((root / "values.json").read_text())
state = Path(os.environ["FAKE_STATE"])
clean = not any(root.rglob("__pycache__")) and not (root / ".git").exists()
kind = "setup" if "--setup-only" in args else "run"
with open(state / "log", "a") as log:
    log.write(f"{values['label']} {w} {kind} {clean} {root}\\n")
if kind == "setup":
    print(json.dumps({"write_s": None}))
    sys.exit(0)
counter = state / f"{values['label']}-{w}"
i = int(counter.read_text()) if counter.exists() else 0
counter.write_text(str(i + 1))
metrics = {m: {"value": v[i % len(v)], "unit": "x"} for m, v in values[w].items()}
print("a line for people")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
'''

BENCHMARK = {
    "workloads": [{"name": "wa"}, {"name": "wb"}],
    "end_to_end": [
        {"name": "same", "unit": "x", "better": "lower", "bound": 0.01},
        {"name": "gain", "unit": "x", "better": "lower", "bound": 0.25},
        {"name": "wide", "unit": "x", "better": "lower", "bound": 0.05},
        {"name": "wins", "unit": "x", "better": "lower", "bound": 0.25},
        {"name": "small", "unit": "x", "better": "lower", "bound": 0.25},
        {"name": "worse", "unit": "x", "better": "higher", "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}
STEPS = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]
PARENT = {
    "same": [5.0], "gain": [1.0, 1.01, 0.99], "wide": [1.0, 2.0], "wins": [1.0],
    "small": STEPS, "worse": [10.0], "setup_s": [1000.0],
}
CHANGE = {
    "same": [5.0], "gain": [0.5, 0.51, 0.49], "wide": [0.5], "wins": [0.9] * 8 + [1.1] * 2,
    "small": [s - 0.001 for s in STEPS], "worse": [5.0], "setup_s": [1000.0],
}


def _git(repo: Path, *args: str) -> str:
    env = {**os.environ, "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}
    return subprocess.run(["git", "-C", str(repo), *args], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def _commit(repo: Path, label: str, values: dict) -> str:
    (repo / "values.json").write_text(json.dumps({"label": label, "wa": values, "wb": values}))
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", label)
    return _git(repo, "rev-parse", "HEAD")


@pytest.fixture
def repo(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(FAKE_RUN)
    (repo / "helper.py").write_text("X = 1\n")
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    _git(repo, "init", "-q")
    return repo, _commit(repo, "P", PARENT), _commit(repo, "C", CHANGE)


def _pairs(tmp_path, repo, *args):
    state, tmp = tmp_path / "state", tmp_path / "tmp"
    state.mkdir(exist_ok=True)
    tmp.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(FAKE_STATE=str(state), TMPDIR=str(tmp))
    done = subprocess.run([sys.executable, str(PAIRS), *args], cwd=repo, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    log = [line.split() for line in (state / "log").read_text().splitlines()]
    assert not any(tmp.iterdir()), "an export was left behind"
    return done, log


def _lines(stdout: str) -> dict[str, str]:
    return {line.split(":")[0]: line for line in stdout.splitlines()[1:]}


def test_sides_alternate_and_every_export_is_clean(tmp_path, repo):
    repo, parent, change = repo
    done, log = _pairs(tmp_path, repo, parent, change, "--pairs", "4")
    assert done.returncode == 1, done.stderr  # "worse" is worse beyond its bound
    runs = [(side, w) for side, w, kind, *_ in log if kind == "run"]
    assert runs == [
        ("P", "wa"), ("C", "wa"), ("P", "wb"), ("C", "wb"),
        ("C", "wa"), ("P", "wa"), ("C", "wb"), ("P", "wb"),
    ] * 2
    assert all(clean == "True" for _, _, _, clean, _ in log)
    exports = {root for *_, root in log}
    assert len(exports) == 2
    assert all(Path(root).is_relative_to(tmp_path / "tmp") for root in exports)
    assert len(_lines(done.stdout)) == 2 * len(BENCHMARK["end_to_end"])


def test_claims_and_no_claims(tmp_path, repo):
    repo, parent, change = repo
    done, _ = _pairs(tmp_path, repo, parent, change, "--workload", "wa", "--pairs", "10")
    assert done.returncode == 1, done.stderr
    lines = _lines(done.stdout)
    assert set(lines) == {f"wa {m['name']}" for m in BENCHMARK["end_to_end"]}
    assert "no claim: identical on every pair" in lines["wa same"]
    assert "wins 10/10; CLAIM: better by 0.5" in lines["wa gain"]
    assert "1 -> 0.5 x" in lines["wa gain"]
    assert "no claim: parent IQR 66.7% of its median exceeds the 0.05 bound" in lines["wa wide"]
    assert "no claim: wins 8/10 < 9/10" in lines["wa wins"]
    assert "wins 10/10; no claim: median gain 0.001 <= parent IQR" in lines["wa small"]
    assert "no claim" in lines["wa worse"]
    assert "WORSE: by 50.0%, beyond the 0.05 bound" in lines["wa worse"]
    assert "WORSE" not in "".join(v for k, v in lines.items() if k != "wa worse")


def test_too_few_pairs_claim_nothing(tmp_path, repo):
    repo, parent, change = repo
    done, _ = _pairs(tmp_path, repo, parent, change, "--workload", "wb", "--pairs", "3")
    lines = _lines(done.stdout)
    assert "wins 3/3; no claim: 3 pairs, a claim needs >= 10" in lines["wb gain"]
    assert "CLAIM" not in done.stdout


def test_one_revision_against_itself_claims_nothing(tmp_path, repo):
    repo, _, change = repo
    done, _ = _pairs(tmp_path, repo, change, change, "--pairs", "10")
    assert done.returncode == 0, done.stderr
    assert "CLAIM" not in done.stdout and "WORSE" not in done.stdout
    assert done.stdout.count("no claim") == 2 * len(BENCHMARK["end_to_end"])


def test_setup_only_rounds_replace_setup_s(tmp_path, repo):
    repo, parent, change = repo
    done, log = _pairs(tmp_path, repo, parent, change, "--workload", "wa", "--pairs", "2",
                       "--setup-only-rounds", "2")
    calls = [(side, kind) for side, _, kind, *_ in log]
    assert calls == [
        ("P", "run"), ("C", "run"), ("P", "setup"), ("C", "setup"), ("C", "setup"), ("P", "setup"),
        ("C", "run"), ("P", "run"), ("C", "setup"), ("P", "setup"), ("P", "setup"), ("C", "setup"),
    ]
    setup = _lines(done.stdout)["wa setup_s"]
    parent_median = float(setup.split(": ")[1].split(" ->")[0])
    assert 0 < parent_median < 1000.0  # the timed walls, not the fake's 1000 s
