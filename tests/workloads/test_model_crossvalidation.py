"""Closed-form model vs. discrete-event simulator: they must agree.

The analytic model (:mod:`repro.analysis.model`) predicts the balanced
scenarios in O(1); the simulator computes them event by event, and the
SION open cost comes from a real ``paropen`` → ``parclose`` trace.
Agreement pins down both implementations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.model import (
    predict_alignment_factor,
    predict_bandwidth,
    predict_create_time,
    predict_open_trace,
    predict_sion_create_time,
    speedup_bound_create,
)
from repro.fs.systems import jaguar, jugene
from repro.workloads.alignment import run_table1
from repro.workloads.common import parallel_io
from repro.workloads.filecreate import (
    sion_open_time,
    sion_open_trace,
    tasklocal_metadata_time,
)

GB = 10**9
TB = 10**12

JU = jugene()
JA = jaguar()


class TestCreateTimes:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 3000), kind=st.sampled_from(["create", "open"]))
    def test_model_matches_des_jugene(self, n, kind):
        assert predict_create_time(JU, n, kind) == pytest.approx(
            tasklocal_metadata_time(JU, n, kind), rel=1e-9
        )

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 3000))
    def test_model_matches_des_jaguar(self, n):
        assert predict_create_time(JA, n) == pytest.approx(
            tasklocal_metadata_time(JA, n), rel=1e-9
        )

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 65536), nfiles=st.integers(1, 64))
    def test_sion_create_model_matches(self, n, nfiles):
        nfiles = min(nfiles, n)
        assert predict_open_trace(n, nfiles) == sion_open_trace(n, nfiles)
        assert predict_sion_create_time(JU, n, nfiles) == pytest.approx(
            sion_open_time(JU, n, nfiles), rel=1e-9
        )

    def test_speedup_bound_consistent(self):
        bound = speedup_bound_create(JU, 65536)
        measured = tasklocal_metadata_time(JU, 65536, "create") / sion_open_time(
            JU, 65536, 1
        )
        assert bound == pytest.approx(measured, rel=1e-9)


class TestBandwidth:
    @pytest.mark.parametrize("op", ["write", "read"])
    @pytest.mark.parametrize("nfiles", [1, 2, 8, 32])
    def test_gpfs_shared_files(self, op, nfiles):
        pred = predict_bandwidth(JU, 65536, op, nfiles)
        sim = parallel_io(JU, 65536, 1 * TB, op, nfiles=nfiles)
        assert sim.bandwidth_mb_s == pytest.approx(pred.bandwidth_mb_s, rel=1e-6)

    @pytest.mark.parametrize("ntasks", [256, 2048, 16384, 65536])
    def test_gpfs_tasklocal(self, ntasks):
        pred = predict_bandwidth(JU, ntasks, "write", 0, tasklocal=True)
        sim = parallel_io(JU, ntasks, 100 * GB, "write", tasklocal=True)
        assert sim.bandwidth_mb_s == pytest.approx(pred.bandwidth_mb_s, rel=1e-6)

    # Fig. 4b on Jaguar, both policies and both ops; 512 files wrap the
    # round-robin placement past the 144 OSTs.
    @pytest.mark.parametrize("nfiles", [1, 2, 4, 16, 64, 512])
    def test_lustre_striped(self, nfiles):
        for op in ("write", "read"):
            bw = {}
            for policy in (JA.default_striping, JA.optimized_striping):
                pred = predict_bandwidth(JA, 2048, op, nfiles, striping=policy)
                sim = parallel_io(JA, 2048, 1 * TB, op, nfiles=nfiles, striping=policy)
                assert sim.bandwidth_mb_s == pytest.approx(pred.bandwidth_mb_s, rel=1e-6)
                bw[policy] = sim.bandwidth_mb_s
            assert bw[JA.optimized_striping] >= bw[JA.default_striping] * (1 - 1e-12)

    def test_rate_cap_scenario(self):
        pred = predict_bandwidth(JU, 32768, "write", 16, rate_cap_per_task=0.067)
        sim = parallel_io(JU, 32768, 1 * TB, "write", nfiles=16,
                          rate_cap_per_task=0.067)
        assert sim.bandwidth_mb_s == pytest.approx(pred.bandwidth_mb_s, rel=1e-6)
        assert pred.binding_constraint == "rate_cap"

    def test_binding_constraint_identification(self):
        # Single shared GPFS file at full scale: the token cap binds.
        assert predict_bandwidth(JU, 65536, "write", 1).binding_constraint == "files"
        # Few tasks: the client side binds.
        assert predict_bandwidth(JU, 256, "write", 32).binding_constraint == "clients"
        # Many files, many tasks: the backplane binds.
        assert predict_bandwidth(JU, 65536, "write", 32).binding_constraint == "backplane"


class TestAlignment:
    def test_alignment_factor_matches_simulated_table1(self):
        t1 = run_table1(JU)
        predicted = predict_alignment_factor(JU, 16 * 1024, "write")
        assert t1.write_factor == pytest.approx(predicted, rel=1e-6)
        predicted_r = predict_alignment_factor(JU, 16 * 1024, "read")
        assert t1.read_factor == pytest.approx(predicted_r, rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(blk=st.sampled_from([4096, 16384, 65536, 1 << 20, 2 << 20, 4 << 20]))
    def test_factor_bounds(self, blk):
        f = predict_alignment_factor(JU, blk)
        assert 1.0 <= f <= 1.0 + JU.lock_model.write_coeff + 1e-9
