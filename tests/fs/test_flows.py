"""Fluid-flow scheduler: fair sharing, caps, weights, batching."""

import math

import pytest

from repro.fs.events import Engine
from repro.fs.flows import FlowScheduler, Resource


def _run(flows_spec, resources=None):
    """Helper: run a set of (size, resources, cap) specs; return flows."""
    eng = Engine()
    sched = FlowScheduler(eng)
    with sched.batch():
        flows = [
            sched.submit(size, res, rate_cap=cap) for size, res, cap in flows_spec
        ]
    eng.run()
    assert sched.active_flows == 0
    return flows


def test_single_flow_uses_full_capacity():
    disk = Resource("disk", 50.0)
    (f,) = _run([(100.0, (disk,), math.inf)])
    assert f.finish_time == pytest.approx(2.0)


def test_two_equal_flows_share_fairly():
    disk = Resource("disk", 100.0)
    flows = _run([(100.0, (disk,), math.inf)] * 2)
    for f in flows:
        assert f.finish_time == pytest.approx(2.0)


def test_short_flow_finishes_first_then_long_speeds_up():
    disk = Resource("disk", 100.0)
    flows = _run([(50.0, (disk,), math.inf), (150.0, (disk,), math.inf)])
    # Phase 1: both at 50 MB/s until t=1 (short done). Phase 2: long gets
    # 100 MB/s for its remaining 100 MB -> t=2.
    assert flows[0].finish_time == pytest.approx(1.0)
    assert flows[1].finish_time == pytest.approx(2.0)


def test_rate_cap_limits_single_flow():
    disk = Resource("disk", 1000.0)
    (f,) = _run([(100.0, (disk,), 10.0)])
    assert f.finish_time == pytest.approx(10.0)


def test_capped_flow_leaves_bandwidth_to_others():
    disk = Resource("disk", 100.0)
    flows = _run([(100.0, (disk,), 10.0), (180.0, (disk,), math.inf)])
    # Capped flow: 10 MB/s for 10 s.  Other: 90 MB/s -> done at 2.0.
    assert flows[0].finish_time == pytest.approx(10.0)
    assert flows[1].finish_time == pytest.approx(2.0)


def test_two_resources_bottleneck_is_the_smaller():
    a = Resource("a", 100.0)
    b = Resource("b", 30.0)
    (f,) = _run([(60.0, (a, b), math.inf)])
    assert f.finish_time == pytest.approx(2.0)


def test_weighted_resource_charges_fraction():
    # Flow charges 1/4 of its rate to the OST: cap 100 -> rate 400.
    ost = Resource("ost", 100.0)
    (f,) = _run([(400.0, ((ost, 0.25),), math.inf)])
    assert f.finish_time == pytest.approx(1.0)


def test_striped_flows_share_targets_fractionally():
    # Two flows, each striped over both targets at weight 1/2: the pair
    # aggregates to 2 * capacity of one target when both targets exist.
    t1 = Resource("t1", 50.0)
    t2 = Resource("t2", 50.0)
    flows = _run([(100.0, ((t1, 0.5), (t2, 0.5)), math.inf)] * 2)
    # Combined rate 100 MB/s, fair split 50 each -> 2 s.
    for f in flows:
        assert f.finish_time == pytest.approx(2.0)


def test_disjoint_resources_run_independently():
    a = Resource("a", 10.0)
    b = Resource("b", 100.0)
    flows = _run([(100.0, (a,), math.inf), (100.0, (b,), math.inf)])
    assert flows[0].finish_time == pytest.approx(10.0)
    assert flows[1].finish_time == pytest.approx(1.0)


def test_zero_size_flow_completes_instantly():
    disk = Resource("disk", 1.0)
    eng = Engine()
    sched = FlowScheduler(eng)
    done = []
    sched.submit(0.0, (disk,), on_complete=lambda t, f: done.append(t))
    eng.run()
    assert done == [0.0]


def test_negative_size_rejected():
    eng = Engine()
    sched = FlowScheduler(eng)
    with pytest.raises(ValueError):
        sched.submit(-1.0, (Resource("d", 1.0),))


def test_nonpositive_cap_rejected():
    eng = Engine()
    sched = FlowScheduler(eng)
    with pytest.raises(ValueError):
        sched.submit(1.0, (Resource("d", 1.0),), rate_cap=0.0)


def test_nonpositive_weight_rejected():
    eng = Engine()
    sched = FlowScheduler(eng)
    with pytest.raises(ValueError):
        sched.submit(1.0, ((Resource("d", 1.0), 0.0),))


def test_completion_callbacks_fire_with_time():
    disk = Resource("disk", 10.0)
    eng = Engine()
    sched = FlowScheduler(eng)
    seen = []
    sched.submit(10.0, (disk,), on_complete=lambda t, f: seen.append((t, f.size_mb)))
    sched.submit(20.0, (disk,), on_complete=lambda t, f: seen.append((t, f.size_mb)))
    eng.run()
    assert seen[0] == (pytest.approx(2.0), 10.0)
    assert seen[1] == (pytest.approx(3.0), 20.0)


def test_staggered_start_integrates_service():
    disk = Resource("disk", 100.0)
    eng = Engine()
    sched = FlowScheduler(eng)
    f1 = sched.submit(100.0, (disk,))
    # Second flow starts at t=0.5 via an event.
    holder = {}
    eng.schedule_at(0.5, lambda: holder.setdefault("f2", sched.submit(50.0, (disk,))))
    eng.run()
    # f1: 50 MB alone by t=0.5, then 50 MB/s -> +1.0 s -> t=1.5.
    assert f1.finish_time == pytest.approx(1.5)
    assert holder["f2"].finish_time == pytest.approx(1.5)


def test_large_symmetric_batch_is_fast_and_exact():
    disk = Resource("disk", 1000.0)
    eng = Engine()
    sched = FlowScheduler(eng)
    with sched.batch():
        flows = [sched.submit(1.0, (disk,)) for _ in range(10000)]
    eng.run()
    for f in flows:
        assert f.finish_time == pytest.approx(10.0)
    # Symmetric batch must not need thousands of events.
    assert eng.events_processed < 100


def test_unconstrained_flow_completes_immediately():
    eng = Engine()
    sched = FlowScheduler(eng)
    f = sched.submit(100.0, ())
    eng.run()
    assert f.finish_time == pytest.approx(0.0)
    assert sched.active_flows == 0
