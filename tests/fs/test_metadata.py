"""Metadata-contention model: the FIFO loop, load/dirsize/brownout terms."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs.metadata import (
    MetadataCosts,
    batch_completion_time_fast,
    fifo_finish_times,
)


def fifo_makespan(n_ops, costs, kind="create", initial_entries=0):
    """The closed form's reference: ``n_ops`` ops fed at t=0 to the
    simulated FIFO station, makespan of the last."""
    return max(fifo_finish_times([kind] * n_ops, costs, initial_entries), default=0.0)


def test_single_create_costs_base_time():
    assert fifo_finish_times(["create"], MetadataCosts(create=0.005)) == [pytest.approx(0.005)]


def test_ops_serialize_in_fifo_order():
    times = fifo_finish_times(["create"] * 5, MetadataCosts(create=0.01))
    assert times == [pytest.approx(0.01 * (i + 1)) for i in range(5)]


def test_batch_makespan_is_linear_without_extra_terms():
    assert fifo_makespan(100, MetadataCosts(create=0.002)) == pytest.approx(0.2)


def test_dir_entries_grow_with_finished_creates():
    # Served for dirsize_factor x entries alone: 0, 1, 2 creates, then two
    # stats that see all three entries and add none.
    costs = MetadataCosts(create=0.0, stat=0.0, dirsize_factor=1.0)
    assert fifo_finish_times(["create"] * 3 + ["stat"] * 2, costs) == [0.0, 1.0, 3.0, 6.0, 9.0]
    assert fifo_finish_times(["stat"], costs, entries=7) == [7.0]


def test_load_factor_counts_the_ops_queued_behind():
    costs = MetadataCosts(create=0.0, load_factor=1.0)
    assert fifo_finish_times(["create"] * 3, costs) == [2.0, 3.0, 3.0]


def test_late_ops_are_not_behind_the_first():
    # The last two join after the station took op 0: it sees one op behind.
    costs = MetadataCosts(create=0.0, load_factor=1.0)
    assert fifo_finish_times(["create"] * 4, costs, late=2) == [1.0, 3.0, 4.0, 4.0]


def test_brownout_scales_ops_with_a_deep_queue_behind():
    costs = MetadataCosts(create=1.0)
    times = fifo_finish_times(
        ["create"] * 4, costs, brownout_threshold=2, brownout_factor=10.0
    )
    # Ops 0 and 1 have 3 and 2 behind (browned out), ops 2 and 3 do not.
    assert times == [10.0, 20.0, 21.0, 22.0]


def test_costs_hold_only_the_kinds_a_model_prices():
    names = [f.name for f in dataclasses.fields(MetadataCosts)]
    assert names == ["create", "open", "stat", "load_factor", "dirsize_factor"]
    for kind in ("close", "unlink", "mkdir", "load_factor"):
        with pytest.raises(ValueError):
            MetadataCosts().base_time(kind)


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
    with pytest.raises(ValueError):
        fifo_finish_times(["create", "chmod"], MetadataCosts())


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        batch_completion_time_fast(-1, MetadataCosts())


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
    slow = fifo_makespan(n, costs, kind=kind, initial_entries=initial)
    fast = batch_completion_time_fast(n, costs, kind=kind, initial_entries=initial)
    assert slow == pytest.approx(fast, rel=1e-9, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 200))
def test_des_matches_closed_form(n):
    costs = MetadataCosts(create=0.003, load_factor=1e-6, dirsize_factor=1e-7)
    assert fifo_makespan(n, costs) == pytest.approx(batch_completion_time_fast(n, costs), rel=1e-9)
