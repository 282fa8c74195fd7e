"""Metadata-contention model: FIFO service, load/dirsize terms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs.events import Engine
from repro.fs.metadata import (
    FifoMetadataService,
    MetadataCosts,
    MetadataOp,
    batch_completion_time_fast,
)


def _service(costs=None):
    eng = Engine()
    return eng, FifoMetadataService(eng, costs or MetadataCosts())


def des_makespan(n_ops, costs, kind="create", initial_entries=0):
    """The closed form's reference: ``n_ops`` ops submitted at t=0 to the
    simulated FIFO station, makespan of the last."""
    eng, svc = _service(costs)
    svc.dir_entries = initial_entries
    done = [0.0]
    for i in range(n_ops):
        svc.submit(MetadataOp(kind, f"/d/f{i}"), lambda t, op: done.append(t))
    eng.run()
    return max(done)


def test_single_create_costs_base_time():
    eng, svc = _service(MetadataCosts(create=0.005))
    done = []
    svc.submit(MetadataOp("create", "/d/f0"), lambda t, op: done.append(t))
    eng.run()
    assert done == [pytest.approx(0.005)]


def test_ops_serialize_in_fifo_order():
    eng, svc = _service(MetadataCosts(create=0.01))
    done = []
    for i in range(5):
        svc.submit(MetadataOp("create", f"/d/f{i}"), lambda t, op: done.append((op.path, t)))
    eng.run()
    paths = [p for p, _ in done]
    assert paths == [f"/d/f{i}" for i in range(5)]
    times = [t for _, t in done]
    assert times == [pytest.approx(0.01 * (i + 1)) for i in range(5)]


def test_batch_makespan_is_linear_without_extra_terms():
    eng, svc = _service(MetadataCosts(create=0.002))
    done = []
    for i in range(100):
        svc.submit(MetadataOp("create", f"/d/f{i}"), lambda t, op: done.append(t))
    eng.run()
    assert max(done) == pytest.approx(0.2)


def test_dir_entries_track_creates_and_unlinks():
    eng, svc = _service()
    for i in range(3):
        svc.submit(MetadataOp("create", f"/d/f{i}"))
    eng.run()
    assert svc.dir_entries == 3
    svc.submit(MetadataOp("unlink", "/d/f0"))
    eng.run()
    assert svc.dir_entries == 2


def test_dirsize_factor_makes_creates_superlinear():
    lin_costs = MetadataCosts(create=0.001)
    sup_costs = MetadataCosts(create=0.001, dirsize_factor=1e-5)
    lin = batch_completion_time_fast(1000, lin_costs)
    sup = batch_completion_time_fast(1000, sup_costs)
    assert sup > lin
    # Doubling N must more than double the superlinear cost.
    assert batch_completion_time_fast(2000, sup_costs) > 2.2 * sup


def test_load_factor_penalizes_deep_queues():
    costs = MetadataCosts(create=0.001, load_factor=1e-5)
    t10 = batch_completion_time_fast(10, costs)
    t100 = batch_completion_time_fast(100, costs)
    assert t100 > 10 * t10  # superlinear in queue depth


def test_open_cheaper_than_create_in_default_profiles():
    from repro.fs.systems import jaguar, jugene

    for profile in (jugene(), jaguar()):
        costs = profile.metadata_costs
        assert costs.open < costs.create


def test_open_existing_uses_initial_entries():
    costs = MetadataCosts(open=0.001, dirsize_factor=1e-6)
    cold = batch_completion_time_fast(100, costs, kind="open", initial_entries=0)
    warm = batch_completion_time_fast(100, costs, kind="open", initial_entries=10000)
    assert warm > cold


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        MetadataCosts().base_time("chmod")
    with pytest.raises(ValueError):
        batch_completion_time_fast(1, MetadataCosts(), kind="chmod")


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        batch_completion_time_fast(-1, MetadataCosts())


def test_service_stats_accumulate():
    eng, svc = _service(MetadataCosts(create=0.01))
    for i in range(4):
        svc.submit(MetadataOp("create", f"/d/f{i}"))
    eng.run()
    assert svc.ops_served == 4
    assert svc.busy_time == pytest.approx(0.04)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(0, 300),
    create=st.floats(1e-5, 1e-2),
    load=st.floats(0, 1e-5),
    dirsize=st.floats(0, 1e-6),
    initial=st.integers(0, 1000),
    kind=st.sampled_from(["create", "open", "stat"]),
)
def test_fast_formula_matches_reference(n, create, load, dirsize, initial, kind):
    costs = MetadataCosts(
        create=create, open=create / 2, stat=create / 4,
        load_factor=load, dirsize_factor=dirsize,
    )
    slow = des_makespan(n, costs, kind=kind, initial_entries=initial)
    fast = batch_completion_time_fast(n, costs, kind=kind, initial_entries=initial)
    assert slow == pytest.approx(fast, rel=1e-9, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 200))
def test_des_matches_closed_form(n):
    costs = MetadataCosts(create=0.003, load_factor=1e-6, dirsize_factor=1e-7)
    assert des_makespan(n, costs) == pytest.approx(batch_completion_time_fast(n, costs), rel=1e-9)
