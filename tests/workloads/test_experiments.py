"""Shape checks for every reproduced table and figure.

These assert the *paper's qualitative findings* — who wins, by what rough
factor, where curves saturate or cross — on the simulated machines.
"""

import pytest

from repro.fs.systems import jaguar, jugene
from repro.workloads.alignment import alignment_sweep, run_table1
from repro.workloads.bandwidth import run_fig4a, run_fig4b
from repro.workloads.filecreate import (
    run_fig3,
    sion_open_time,
    tasklocal_metadata_time,
)
from repro.workloads.mp2c_io import crossover_particles_m, run_fig6
from repro.workloads.scalasca_io import run_table2
from repro.workloads.taskbw import run_fig5a, run_fig5b

JU = jugene()
JA = jaguar()


class TestFig3:
    def test_create_monotonic_in_tasks(self):
        rows = run_fig3(JU, [1024, 4096, 16384])
        creates = [r.create_files_s for r in rows]
        assert creates == sorted(creates)

    def test_open_cheaper_than_create(self):
        for profile, n in ((JU, 16384), (JA, 4096)):
            assert tasklocal_metadata_time(profile, n, "open") < (
                tasklocal_metadata_time(profile, n, "create")
            )

    def test_sion_orders_of_magnitude_faster(self):
        rows = run_fig3(JU, [65536])
        assert rows[0].create_speedup > 50

    def test_paper_headline_numbers(self):
        """64K creates take minutes; the SION multifile takes seconds."""
        ju = run_fig3(JU, [65536])[0]
        assert 300 < ju.create_files_s < 480  # "more than five minutes"
        assert ju.sion_create_s < 3.0  # "less than 3 s on Jugene"
        ja = run_fig3(JA, [12288], sion_nfiles=16)[0]
        assert 240 < ja.create_files_s < 420
        assert ja.sion_create_s < 10.0  # "less than 10 s on Jaguar"

    def test_sion_create_scales_mildly(self):
        t4k = sion_open_time(JU, 4096)
        t64k = sion_open_time(JU, 65536)
        assert t64k < 20 * t4k  # near-linear in ntasks, tiny constants


class TestFig4:
    def test_jugene_single_file_capped_then_saturates(self):
        pts = {p.nfiles: p for p in run_fig4a(JU)}
        assert pts[1].write_mb_s == pytest.approx(2400, rel=0.05)
        assert pts[16].write_mb_s > 5800
        assert pts[16].read_mb_s > 6000

    def test_jugene_decline_at_128_files(self):
        pts = {p.nfiles: p for p in run_fig4a(JU)}
        assert pts[128].write_mb_s < pts[16].write_mb_s

    def test_jaguar_default_rises_with_files(self):
        res = run_fig4b(JA)
        default = [p.write_mb_s for p in res.default]
        assert default[0] < default[2] < default[4]
        assert max(default) > 20000  # saturates in the paper's 25-30 GB/s zone

    def test_jaguar_optimized_always_superior_and_flat(self):
        res = run_fig4b(JA)
        for d, o in zip(res.default, res.optimized):
            assert o.write_mb_s >= d.write_mb_s - 1e-6
            assert o.read_mb_s >= d.read_mb_s - 1e-6
        # "good performance already for two physical files"
        assert res.optimized[1].write_mb_s > 20000


class TestTable1:
    def test_paper_penalty_factors(self):
        t1 = run_table1(JU)
        assert t1.write_factor == pytest.approx(2.53, abs=0.1)
        assert t1.read_factor == pytest.approx(1.78, abs=0.1)

    def test_aligned_row_near_measured_values(self):
        t1 = run_table1(JU)
        # Paper: 5381.8 / 4630.6 MB/s; we accept the simulated saturation zone.
        assert 5000 < t1.aligned.write_mb_s < 6500
        assert 4200 < t1.aligned.read_mb_s < 6600

    def test_ablation_sweep_monotonic(self):
        rows = alignment_sweep(JU, [2 * (1 << 20), 512 * 1024, 64 * 1024, 16 * 1024])
        writes = [r.write_mb_s for r in rows]
        assert writes == sorted(writes, reverse=True)

    def test_no_effect_on_jaguar(self):
        t1 = run_table1(JA)
        assert t1.write_factor == pytest.approx(1.0, abs=1e-6)


class TestFig5:
    def test_jugene_saturates_at_8k_tasks(self):
        pts = {p.ntasks: p for p in run_fig5a(JU)}
        assert pts[1024].sion_write < 3000  # client-bound at small scale
        assert pts[8192].sion_write > 5800  # saturated
        assert pts[65536].sion_write == pytest.approx(pts[8192].sion_write, rel=0.05)

    def test_jugene_sion_marginally_better(self):
        for p in run_fig5a(JU):
            assert p.sion_write >= p.tasklocal_write - 1e-6
            assert p.sion_read >= p.tasklocal_read - 1e-6

    def test_jaguar_sion_write_better_at_scale(self):
        pts = run_fig5b(JA)
        large = [p for p in pts if p.ntasks >= 2048]
        assert all(p.sion_write > p.tasklocal_write for p in large)

    def test_jaguar_read_exceeds_nominal_peak(self):
        pts = {p.ntasks: p for p in run_fig5b(JA)}
        assert pts[12288].sion_read > JA.nominal_peak_bw
        assert pts[128].sion_read < JA.nominal_peak_bw


class TestFig6:
    def test_sion_flat_until_block_floor(self):
        pts = run_fig6(JU)
        small = [p for p in pts if p.data_mb < 1000 * 2]  # below 1000 x 2 MiB
        assert max(p.sion_write_s for p in small) == pytest.approx(
            min(p.sion_write_s for p in small), rel=0.01
        )

    def test_baseline_linear_in_particles(self):
        pts = {p.particles_m: p for p in run_fig6(JU)}
        assert pts[10].single_write_s == pytest.approx(
            10 * pts[1].single_write_s, rel=0.01
        )

    def test_crossover_within_swept_range(self):
        pts = run_fig6(JU)
        cross = crossover_particles_m(pts)
        assert cross is not None and cross <= 10

    def test_one_to_two_orders_at_33m(self):
        pts = {p.particles_m: p for p in run_fig6(JU)}
        assert 10 <= pts[33.0].write_speedup <= 200
        assert 10 <= pts[33.0].read_speedup <= 200

    def test_billion_particles_feasible_with_sion(self):
        """The paper's motivation: >1e9 particles became possible."""
        pts = {p.particles_m: p for p in run_fig6(JU)}
        assert pts[1000.0].sion_write_s < 60  # under a minute
        assert pts[1000.0].single_write_s > 2000  # vs ~45 minutes serialized


class TestTable2:
    def test_activation_speedup_order_of_magnitude(self):
        t2 = run_table2(JU)
        assert 5 <= t2.activation_speedup <= 20  # paper: 13.1x

    def test_sion_activation_near_paper_value(self):
        t2 = run_table2(JU)
        assert 20 < t2.sion.activation_s < 40  # paper: 28.1 s

    def test_write_bandwidth_slightly_improved(self):
        t2 = run_table2(JU)
        assert t2.sion.write_bw_mb_s > t2.tasklocal.write_bw_mb_s
        assert t2.sion.write_bw_mb_s == pytest.approx(2194, rel=0.05)
        assert t2.tasklocal.write_bw_mb_s == pytest.approx(2153, rel=0.05)
