"""Machine-profile sanity and derived helpers."""

import pytest

from repro.fs.systems import SystemProfile, get_system, jaguar, jugene


def test_registry_lookup():
    assert get_system("jugene").name == "Jugene"
    assert get_system("JAGUAR").name == "Jaguar"
    with pytest.raises(ValueError):
        get_system("summit")


@pytest.mark.parametrize("profile", [jugene(), jaguar()])
def test_profiles_internally_consistent(profile: SystemProfile):
    assert profile.fs_block_size > 0
    assert profile.peak_write_bw > 0 and profile.peak_read_bw > 0
    assert profile.n_targets >= 1
    assert profile.metadata_costs.create > profile.metadata_costs.open
    assert profile.shared_open_time > 0
    assert profile.total_cores % profile.cores_per_node == 0


def test_jugene_is_gpfs_with_per_file_caps():
    ju = jugene()
    assert ju.fs_type == "gpfs"
    assert ju.per_file_bw("write") == pytest.approx(2400.0)
    assert ju.per_file_bw("read") == pytest.approx(2800.0)
    assert ju.lock_model.write_coeff > 0  # alignment matters on GPFS


def test_jaguar_is_lustre_with_striping_caps():
    ja = jaguar()
    assert ja.fs_type == "lustre"
    default = ja.per_file_bw("write")
    optimized = ja.per_file_bw("write", ja.optimized_striping)
    assert optimized > default  # 64 OSTs beat 4
    assert ja.lock_model.write_coeff == 0.0  # no alignment penalty measured


def test_aggregate_client_bw_scales_then_caps():
    ju = jugene()
    assert ju.aggregate_client_bw(1024) < ju.aggregate_client_bw(4096)
    # I/O-node fan-in limits the client side on Blue Gene.
    assert ju.aggregate_client_bw(512) == pytest.approx(ju.ionode_bw)


def test_jaguar_clients_direct_attached():
    ja = jaguar()
    assert ja.aggregate_client_bw(100) == pytest.approx(100 * ja.client_bw_per_task)


def test_collective_time_logarithmic():
    """A collective wave over the world costs ceil(log2 size) tree hops."""
    from repro.workloads.filecreate import OpenTrace, open_trace_time

    ju = jugene()

    def wave(n: int) -> float:
        return open_trace_time(ju, OpenTrace(n, "w", 0, 0, 0, 0, 0, ((n, "gather"),)))

    assert wave(1) == 0.0
    assert wave(65536) == pytest.approx(16 * wave(2))


def test_n_nodes_rounds_up():
    ju = jugene()
    assert ju.n_nodes(1) == 1
    assert ju.n_nodes(5) == 2
    assert ju.n_nodes(8) == 2


def test_backplane_overheads_reduce_bandwidth():
    ju = jugene()
    base = ju.backplane_after_overheads("write")
    shared = ju.backplane_after_overheads("write", n_shared_files=128)
    tl = ju.backplane_after_overheads("write", n_tasklocal_files=65536)
    assert base == pytest.approx(ju.peak_write_bw)
    assert shared < base
    assert tl < base
    assert ju.backplane_after_overheads("write", n_tasklocal_files=10**9) >= 1.0


def test_peak_bw_op_validation():
    with pytest.raises(ValueError):
        jugene().peak_bw("append")


def test_sion_create_beats_tasklocal_on_both_machines():
    """The headline claim, at the profile level."""
    from repro.workloads.filecreate import sion_open_time, tasklocal_metadata_time

    for profile, ntasks in ((jugene(), 65536), (jaguar(), 12288)):
        t_tl = tasklocal_metadata_time(profile, ntasks, "create")
        t_sion = sion_open_time(profile, ntasks, 16)
        assert t_sion < t_tl / 20  # orders of magnitude, as the paper says


def test_paper_endpoint_calibration():
    """The calibrated endpoints stay near the paper's reported values."""
    from repro.workloads.filecreate import sion_open_time, tasklocal_metadata_time

    ju, ja = jugene(), jaguar()
    # Jugene: 64K creates ~ 6 min, opens ~ 1 min, SION < 3 s.
    assert 300 <= tasklocal_metadata_time(ju, 65536, "create") <= 480
    assert 45 <= tasklocal_metadata_time(ju, 65536, "open") <= 130
    assert sion_open_time(ju, 65536, 1) < 3.0
    # Jaguar: 12K creates ~ 5 min, opens ~ 20-60 s, SION < 10 s.
    assert 240 <= tasklocal_metadata_time(ja, 12288, "create") <= 420
    assert 15 <= tasklocal_metadata_time(ja, 12288, "open") <= 70
    assert sion_open_time(ja, 12288, 16) < 10.0
