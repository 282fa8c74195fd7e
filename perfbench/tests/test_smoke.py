"""The exact command of ``BENCHMARK.json``, from /tmp, with an empty
environment, at the reduced size (``--scale smoke``: 512 tasks, 2 timed reps).

Run with ``python -m pytest perfbench/tests`` (not part of the tier-1 suite:
it measures nothing the library tests do not already check, it checks that
the benchmark itself still runs and still prints what it declares).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def command(root: Path) -> list[str]:
    """The recorded command, with the program and the script made absolute."""
    program, script, *rest = SPEC["command"]
    assert program == "python3"
    return ["env", "-i", sys.executable, str(root / script), *rest]


def left_running(session: int) -> list[str]:
    """Command lines of the processes (zombies too) that are in ``session``."""
    left = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
                if int(stat.rpartition(")")[2].split()[3]) == session:
                    left.append(Path("/proc", entry, "cmdline").read_text().replace("\0", " "))
            except OSError:
                continue  # ended while we looked
    return left


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = 1, again: int = 0) -> dict:
    with subprocess.Popen(
        [*command(ROOT), "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--scale", "smoke"],
        cwd="/tmp", stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        out, err = proc.communicate(timeout=170)
        # The run stops and waits for whatever it started (the proc-engine
        # probe's resource tracker, say) before it exits, not some time after.
        assert left_running(proc.pid) == []
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def check(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed(workload: str) -> None:
    result = run(workload, 0)
    check(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_printed(workload: str) -> None:
    check(run(workload, 1), SPEC["per_layer"])


def test_a_second_seed_passes_and_seed_free_counts_repeat() -> None:
    first, again, other = run("ctrl-16k", 1), run("ctrl-16k", 1, again=1), run("ctrl-16k", 1, seed=2)
    assert other["correct"] and other["failed"] == 0
    for name in ("simmpi.bulk.executions_per_rank", "simmpi.bulk.waves", "backends.opens"):
        assert first["metrics"][name] == again["metrics"][name] == other["metrics"][name]
    assert first["metrics"]["backends.bytes_written"] == again["metrics"]["backends.bytes_written"]


def test_it_refuses_to_run_without_the_library() -> None:
    """A directory with only BENCHMARK.json and the benchmark's own files."""
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [*command(bare), "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "0",
             "--trace", "0", "--scale", "smoke"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert not done.stdout.strip()
