"""Every table and figure of the paper's evaluation, as one pytest module.

Parametrised over the ``repro.bench`` registry: the ``full`` suite (the
deterministic figure/table simulations, ``core-io`` and the ``micro``
timings) plus the ``ci-grid`` points of the grid suites.  A scenario's
claims are pinned *inside* the scenario, so a test here fails in the same
words as ``python -m repro.bench run``; what pytest adds is the rendered
table under ``results/`` (one ``.txt`` per scenario, named after it) and
the few claims that span two scenarios.  The 64k-2^20 points run through
``python -m repro.bench run --suite S``.
"""

import functools
import json
import os
import pathlib

import pytest

from repro.bench import get_scenario, iter_scenarios
from repro.bench.results import git_sha, utc_now_iso

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SCENARIOS = [sc.name for sc in iter_scenarios(suite="full")] + [
    sc.name
    for suite in ("scale", "collective", "repartition", "serve", "resilience")
    for sc in iter_scenarios(suite=suite, tags=("ci-grid",))
]

#: ISSUE 7 acceptance: minimum aggregate-bandwidth scaling of 4 process
#: workers over 1, measured within one run on a >= 4-core host.
TASKBW_MIN_SCALING_4W = 2.0


@functools.cache
def _checkout_sha() -> str:
    """One ``git rev-parse`` per session, of *this* checkout whatever the cwd."""
    return git_sha(cwd=pathlib.Path(__file__).parent)


def artifact_name(scenario: str) -> str:
    return scenario.translate(str.maketrans("/-[", "__.", "]"))


def emit(scenario: str, text: str) -> None:
    """Print a reproduced table/figure and persist it under results/.

    Next to each ``<artifact>.txt`` a ``.meta.json`` sidecar stamps the
    scenario that produced it (rerun it with ``python -m repro.bench run
    --filter <scenario>``), the git SHA and an ISO timestamp.
    """
    artifact = artifact_name(scenario)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{artifact}.txt").write_text(text + "\n")
    sidecar = {
        "artifact": artifact,
        "scenario": scenario,
        "git_sha": _checkout_sha(),
        "created": utc_now_iso(),
    }
    (RESULTS_DIR / f"{artifact}.meta.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )
    print(f"\n=== {scenario} ===\n{text}")


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario(name):
    emit(name, get_scenario(name).execute().text)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="bandwidth scaling needs >= 4 real cores",
)
def test_taskbw_scales_with_cores():
    # Aggregate write bandwidth of the proc engine must scale with worker
    # processes — within this run, the only comparison that transfers
    # between machines.  (The thread engine cannot pass this on any
    # hardware: one GIL.)
    agg1, agg4 = (
        get_scenario(f"scale/taskbw[workers={w}]").execute().metrics["agg_mb_per_s"].value
        for w in (1, 4)
    )
    assert agg4 >= TASKBW_MIN_SCALING_4W * agg1, (
        f"4 workers moved {agg4:,.0f} MB/s vs {agg1:,.0f} MB/s for 1 — "
        f"scaling below {TASKBW_MIN_SCALING_4W}x"
    )
