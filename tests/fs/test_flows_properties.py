"""Property-based invariants of the max-min fair flow model."""

import math

from hypothesis import given, settings, strategies as st

from repro.fs.flows import Resource, finish_times

_sizes = st.lists(
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False), min_size=1, max_size=12
)


def _makespan(sizes, capacity, caps=None):
    disk = Resource("disk", capacity)
    caps = caps or [math.inf] * len(sizes)
    done = finish_times([(s, (disk,), cap) for s, cap in zip(sizes, caps)])
    return max(done), done


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
    makespan, done = _makespan(sizes, capacity, caps=[cap] * len(sizes))
    total = sum(sizes)
    assert makespan >= total / capacity - 1e-9
    for size, finish in zip(sizes, done):
        assert finish >= size / cap - 1e-9


@settings(max_examples=40, deadline=None)
@given(sizes=_sizes, capacity=st.floats(min_value=1.0, max_value=100.0))
def test_completions_ordered_by_size(sizes, capacity):
    """Equal-priority flows on one resource finish in size order."""
    _, done = _makespan(sizes, capacity)
    finish = [f for _, f in sorted(zip(sizes, done), key=lambda pair: pair[0])]
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
    f1 = finish_times([(s, ((disk1, weight),)) for s in sizes])
    disk2 = Resource("d", capacity / weight)
    f2 = finish_times([(s, (disk2,)) for s in sizes])
    for a, b in zip(f1, f2):
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
