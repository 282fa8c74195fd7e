"""Metadata brownout model: create storms hurt bystanders."""

import pytest

from repro.fs.interference import BystanderResult, bystander_latency
from repro.fs.metadata import MetadataCosts, fifo_finish_times
from repro.fs.systems import jugene


def test_shallow_queue_runs_at_base_rate():
    done = fifo_finish_times(["create"] * 10, MetadataCosts(create=0.001), brownout_threshold=100)
    assert max(done) == pytest.approx(0.010)


def test_deep_queue_triggers_brownout():
    done = fifo_finish_times(
        ["create"] * 20, MetadataCosts(create=0.001), brownout_threshold=5, brownout_factor=10.0
    )
    assert max(done) > 20 * 0.001  # slower than the un-degraded makespan


def test_bystander_waits_behind_half_the_storm():
    # storm 6: creates 0-2, the stat, creates 3-5.  The first create is
    # dequeued before the stat and creates 3-5 arrive, so it sees 2 behind;
    # every later op sees all the ops still queued.
    costs = MetadataCosts(create=0.0, stat=0.0, load_factor=1.0)
    res = bystander_latency(costs, storm_ops=6, brownout_threshold=5, brownout_factor=10.0)
    assert res.storm_latency_s == 2 + 50 + 4 + 3
    assert bystander_latency(costs, storm_ops=1).storm_latency_s == 1.0


def test_bystander_unharmed_on_quiet_system():
    res = bystander_latency(jugene().metadata_costs, storm_ops=0)
    assert res.slowdown == pytest.approx(1.0)


def test_bystander_suffers_during_storm():
    """The paper's §1 claim: arbitrary users notice a 64K create storm."""
    res = bystander_latency(jugene().metadata_costs, storm_ops=65536)
    # An op that normally takes 0.1 ms waits behind half the storm: minutes.
    assert res.quiet_latency_s < 1e-3
    assert res.storm_latency_s > 60
    assert res.slowdown > 1e5


def test_collateral_scales_with_storm_size():
    costs = jugene().metadata_costs
    small = bystander_latency(costs, storm_ops=1024)
    large = bystander_latency(costs, storm_ops=32768)
    assert large.storm_latency_s > 10 * small.storm_latency_s


def test_sion_sized_storm_is_harmless():
    """A SION creation (a handful of creates) barely delays anyone."""
    res = bystander_latency(jugene().metadata_costs, storm_ops=16)
    assert res.storm_latency_s < 0.1


def test_validation():
    with pytest.raises(ValueError):
        bystander_latency(MetadataCosts(), storm_ops=-1)


def test_result_dataclass():
    r = BystanderResult(storm_ops=10, quiet_latency_s=0.0, storm_latency_s=5.0)
    assert r.slowdown == 1.0  # zero-quiet guard
