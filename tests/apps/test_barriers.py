"""Wait-at-Barrier analysis."""

import pytest

from repro.apps.scalasca.analyzer import analyze_barriers
from repro.apps.scalasca.events import EventKind
from repro.apps.scalasca.smg2000 import SMG2000Config, generate_smg2000_trace, is_imbalanced
from repro.apps.scalasca.tracer import TraceExperiment, Tracer
from repro.simmpi import run_spmd


def _pipeline(backend, base, ntasks, imbalance, iterations=3):
    cfg = SMG2000Config(ntasks=ntasks, iterations=iterations, imbalance=imbalance)
    path = f"{base}/bar_{imbalance}.sion"

    def task(comm):
        exp = TraceExperiment(comm, path, method="sion", backend=backend)
        exp.activate()
        generate_smg2000_trace(comm.rank, cfg, exp.tracer)
        exp.finalize()
        return analyze_barriers(comm, path, method="sion", backend=backend)

    return run_spmd(ntasks, task)


def test_tracer_records_barrier_events():
    t = Tracer(0)
    t.advance(1.0)
    t.barrier_enter(barrier_id=7)
    t.barrier_exit(barrier_id=7)
    kinds = [e.kind for e in t.events]
    assert kinds == [EventKind.BARRIER_ENTER, EventKind.BARRIER_EXIT]
    assert t.events[0].ref == 7
    assert t.events[0].timestamp == 1.0


def test_instances_counted_per_iteration(any_backend):
    backend, base = any_backend
    results = _pipeline(backend, base, 8, imbalance=0.0, iterations=4)
    assert results[0].n_instances == 4


def test_balanced_run_has_no_barrier_waits(any_backend):
    backend, base = any_backend
    results = _pipeline(backend, base, 8, imbalance=0.0)
    assert results[0].total_wait_time == pytest.approx(0.0, abs=1e-12)


def test_imbalance_makes_fast_ranks_wait(any_backend):
    backend, base = any_backend
    results = _pipeline(backend, base, 8, imbalance=0.8)
    r = results[0]
    assert r.total_wait_time > 0
    cfg = SMG2000Config(ntasks=8, iterations=3, imbalance=0.8)
    slow = [i for i in range(8) if is_imbalanced(i, cfg)]
    fast = [i for i in range(8) if not is_imbalanced(i, cfg)]
    # The slowest ranks wait least (they arrive last).
    assert min(r.wait_per_task[i] for i in fast) >= max(
        r.wait_per_task[i] for i in slow
    ) - 1e-12


def test_result_identical_on_all_ranks(any_backend):
    backend, base = any_backend
    results = _pipeline(backend, base, 4, imbalance=0.5)
    for r in results[1:]:
        assert r.wait_per_task == results[0].wait_per_task
        assert r.instance_waits == results[0].instance_waits


def test_instance_waits_sum_to_total(any_backend):
    backend, base = any_backend
    r = _pipeline(backend, base, 8, imbalance=0.6)[0]
    assert sum(r.instance_waits) == pytest.approx(r.total_wait_time)
