"""Fluid-flow model: fair sharing, caps, weights, symmetric batches."""

import math

import pytest

from repro.errors import ModelFailureError
from repro.fs import flows
from repro.fs.flows import Resource, finish_times


def test_single_flow_uses_full_capacity():
    disk = Resource("disk", 50.0)
    assert finish_times([(100.0, (disk,))]) == [pytest.approx(2.0)]


def test_two_equal_flows_share_fairly():
    disk = Resource("disk", 100.0)
    assert finish_times([(100.0, (disk,))] * 2) == [pytest.approx(2.0)] * 2


def test_short_flow_finishes_first_then_long_speeds_up():
    disk = Resource("disk", 100.0)
    done = finish_times([(50.0, (disk,)), (150.0, (disk,))])
    # Phase 1: both at 50 MB/s until t=1 (short done). Phase 2: long gets
    # 100 MB/s for its remaining 100 MB -> t=2.
    assert done == [pytest.approx(1.0), pytest.approx(2.0)]


def test_rate_cap_limits_single_flow():
    disk = Resource("disk", 1000.0)
    assert finish_times([(100.0, (disk,), 10.0)]) == [pytest.approx(10.0)]


def test_capped_flow_leaves_bandwidth_to_others():
    disk = Resource("disk", 100.0)
    done = finish_times([(100.0, (disk,), 10.0), (180.0, (disk,), math.inf)])
    # Capped flow: 10 MB/s for 10 s.  Other: 90 MB/s -> done at 2.0.
    assert done == [pytest.approx(10.0), pytest.approx(2.0)]


def test_two_resources_bottleneck_is_the_smaller():
    a = Resource("a", 100.0)
    b = Resource("b", 30.0)
    assert finish_times([(60.0, (a, b))]) == [pytest.approx(2.0)]


def test_weighted_resource_charges_fraction():
    # Flow charges 1/4 of its rate to the OST: cap 100 -> rate 400.
    ost = Resource("ost", 100.0)
    assert finish_times([(400.0, ((ost, 0.25),))]) == [pytest.approx(1.0)]


def test_striped_flows_share_targets_fractionally():
    # Two flows, each striped over both targets at weight 1/2: the pair
    # aggregates to 2 * capacity of one target when both targets exist.
    t1 = Resource("t1", 50.0)
    t2 = Resource("t2", 50.0)
    done = finish_times([(100.0, ((t1, 0.5), (t2, 0.5)))] * 2)
    # Combined rate 100 MB/s, fair split 50 each -> 2 s.
    assert done == [pytest.approx(2.0)] * 2


def test_disjoint_resources_run_independently():
    a = Resource("a", 10.0)
    b = Resource("b", 100.0)
    done = finish_times([(100.0, (a,)), (100.0, (b,))])
    assert done == [pytest.approx(10.0), pytest.approx(1.0)]


def test_zero_size_flow_completes_instantly():
    disk = Resource("disk", 1.0)
    assert finish_times([(0.0, (disk,)), (1.0, (disk,))]) == [0.0, pytest.approx(1.0)]


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        finish_times([(-1.0, (Resource("d", 1.0),))])


def test_nonpositive_cap_rejected():
    with pytest.raises(ValueError):
        finish_times([(1.0, (Resource("d", 1.0),), 0.0)])


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError):
        finish_times([(1.0, ((Resource("d", 1.0), 0.0),))])


def test_flow_that_can_never_drain_raises():
    dead = Resource("dead", 0.0)
    with pytest.raises(ModelFailureError):
        finish_times([(1.0, (Resource("d", 1.0),)), (1.0, (dead,))])


def test_large_symmetric_batch_is_fast_and_exact(monkeypatch):
    fills = []
    fill = flows._max_min_rates
    monkeypatch.setattr(flows, "_max_min_rates", lambda profiles: fills.append(fill(profiles)))
    disk = Resource("disk", 1000.0)
    done = finish_times([(1.0, (disk,))] * 10000)
    assert done == [pytest.approx(10.0)] * 10000
    # A symmetric batch drains as one profile: one rate computation
    # before its completion and one after, not thousands.
    assert len(fills) == 2


def test_unconstrained_flow_completes_immediately():
    assert finish_times([(100.0, ())]) == [pytest.approx(0.0)]
