"""Striping policies, OST placement and the bandwidth the flow model
gives striped files."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs.striping import StripingPolicy, assign_osts_roundrobin
from repro.fs.systems import jaguar
from repro.workloads.common import parallel_io

MiB = 1 << 20
TB = 10**12
JA = jaguar()


def test_policy_validation():
    with pytest.raises(ValueError):
        StripingPolicy(0, MiB)
    with pytest.raises(ValueError):
        StripingPolicy(4, 0)


def test_depth_efficiency_increases_with_depth():
    shallow = StripingPolicy(4, 1 * MiB).depth_efficiency()
    deep = StripingPolicy(4, 8 * MiB).depth_efficiency()
    assert 0 < shallow < deep < 1.0


def test_depth_efficiency_paper_gap():
    """1 MB stripes lose ~20%; 8 MB stripes are nearly free."""
    assert StripingPolicy(4, 1 * MiB).depth_efficiency() == pytest.approx(0.8, abs=0.02)
    assert StripingPolicy(64, 8 * MiB).depth_efficiency() > 0.95


def test_roundrobin_assignment_is_contiguous_and_wraps():
    sets = assign_osts_roundrobin(3, stripe_count=4, n_targets=10)
    assert sets[0] == [0, 1, 2, 3]
    assert sets[1] == [4, 5, 6, 7]
    assert sets[2] == [8, 9, 0, 1]


def test_roundrobin_stripe_clamped_to_targets():
    sets = assign_osts_roundrobin(1, stripe_count=10, n_targets=4)
    assert sets[0] == [0, 1, 2, 3]


def test_roundrobin_requires_targets():
    with pytest.raises(ValueError):
        assign_osts_roundrobin(1, 1, 0)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 500),
    stripe=st.integers(1, 64),
    targets=st.integers(1, 200),
)
def test_roundrobin_covers_every_target_before_reusing_one(n, stripe, targets):
    """The coverage rule ``predict_bandwidth`` uses: min(n * stripe, targets)."""
    sets = assign_osts_roundrobin(n, stripe, targets)
    assert len(sets) == n
    assert all(len(set(s)) == min(stripe, targets) for s in sets)
    assert len(set().union(*sets)) == min(n * stripe, targets)


def test_aggregate_bandwidth_capped_by_system_peak():
    bw = parallel_io(JA, 2048, 1 * TB, "write", nfiles=64,
                     striping=JA.optimized_striping).bandwidth_mb_s
    assert bw == pytest.approx(JA.backplane_after_overheads("write", n_shared_files=64))
    assert bw <= JA.peak_write_bw


def test_aggregate_bandwidth_small_counts_scale_linearly():
    one, two = (
        parallel_io(JA, 2048, 1 * TB, "write", nfiles=n,
                    striping=JA.default_striping).bandwidth_mb_s
        for n in (1, 2)
    )
    assert two == pytest.approx(2 * one, rel=1e-9)  # disjoint OSTs until the pool wraps


def test_aggregate_bandwidth_uncapped_default():
    bw = parallel_io(JA, 2048, 1 * TB, "write", nfiles=4,
                     striping=JA.default_striping).bandwidth_mb_s
    assert bw < math.inf
