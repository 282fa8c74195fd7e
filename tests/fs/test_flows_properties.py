"""Property-based invariants of the max-min fair flow model."""

import math

from hypothesis import given, settings, strategies as st

from repro.fs.events import Engine
from repro.fs.flows import FlowScheduler, Resource

_sizes = st.lists(
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False), min_size=1, max_size=12
)


def _makespan(sizes, capacity, caps=None):
    disk = Resource("disk", capacity)
    eng = Engine()
    sched = FlowScheduler(eng)
    flows = []
    with sched.batch():
        for i, s in enumerate(sizes):
            cap = caps[i] if caps else math.inf
            flows.append(sched.submit(s, (disk,), rate_cap=cap))
    eng.run()
    assert sched.active_flows == 0
    return max(f.finish_time for f in flows), flows


@settings(max_examples=60, deadline=None)
@given(sizes=_sizes, capacity=st.floats(min_value=1.0, max_value=1000.0))
def test_work_conservation_single_resource(sizes, capacity):
    """One shared resource with uncapped flows: makespan == total/capacity."""
    makespan, _ = _makespan(sizes, capacity)
    assert makespan == sum(sizes) / capacity or abs(
        makespan - sum(sizes) / capacity
    ) <= 1e-6 * max(1.0, makespan)


@settings(max_examples=60, deadline=None)
@given(
    sizes=_sizes,
    capacity=st.floats(min_value=1.0, max_value=1000.0),
    cap=st.floats(min_value=0.5, max_value=100.0),
)
def test_makespan_lower_bounds(sizes, capacity, cap):
    """Makespan can never beat the capacity bound or any flow's cap bound."""
    makespan, flows = _makespan(sizes, capacity, caps=[cap] * len(sizes))
    total = sum(sizes)
    assert makespan >= total / capacity - 1e-9
    for f in flows:
        assert f.finish_time - f.start_time >= f.size_mb / cap - 1e-9


@settings(max_examples=40, deadline=None)
@given(sizes=_sizes, capacity=st.floats(min_value=1.0, max_value=100.0))
def test_completions_ordered_by_size(sizes, capacity):
    """Equal-priority flows on one resource finish in size order."""
    _, flows = _makespan(sizes, capacity)
    by_size = sorted(flows, key=lambda f: f.size_mb)
    finish = [f.finish_time for f in by_size]
    assert all(a <= b + 1e-9 for a, b in zip(finish, finish[1:]))


@settings(max_examples=40, deadline=None)
@given(sizes=_sizes, capacity=st.floats(min_value=1.0, max_value=100.0))
def test_adding_a_flow_never_speeds_anyone_up(sizes, capacity):
    base, _ = _makespan(sizes, capacity)
    more, _ = _makespan([*sizes, 10.0], capacity)
    assert more >= base - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    sizes=_sizes,
    weight=st.floats(min_value=0.1, max_value=1.0),
    capacity=st.floats(min_value=1.0, max_value=100.0),
)
def test_weighted_usage_scales_capacity(sizes, weight, capacity):
    """Charging weight w is the same as a resource with capacity/w."""
    disk1 = Resource("d", capacity)
    eng1 = Engine()
    s1 = FlowScheduler(eng1)
    with s1.batch():
        f1 = [s1.submit(s, ((disk1, weight),)) for s in sizes]
    eng1.run()

    disk2 = Resource("d", capacity / weight)
    eng2 = Engine()
    s2 = FlowScheduler(eng2)
    with s2.batch():
        f2 = [s2.submit(s, (disk2,)) for s in sizes]
    eng2.run()

    for a, b in zip(f1, f2):
        assert math.isclose(a.finish_time, b.finish_time, rel_tol=1e-9, abs_tol=1e-9)
