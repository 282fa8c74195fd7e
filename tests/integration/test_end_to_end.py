"""End-to-end scenarios crossing all layers of the stack."""

from repro.apps.mp2c import SimulationConfig, read_restart, run_simulation
from repro.apps.mp2c.particles import ParticleState, equal_states
from repro.apps.scalasca.analyzer import analyze_traces
from repro.apps.scalasca.smg2000 import SMG2000Config, generate_smg2000_trace
from repro.apps.scalasca.tracer import TraceExperiment
from repro.sion import open_rank, paropen, recover_multifile, serial
from repro.simmpi import run_spmd
from repro.utils.defrag import defragment
from repro.utils.dump import dump_multifile
from repro.utils.split import split_multifile
from tests.conftest import TEST_BLKSIZE


def test_full_multifile_lifecycle(any_backend):
    """Write in parallel; dump, split, defragment, re-read serially."""
    backend, base = any_backend
    path = f"{base}/life.sion"
    sizes = [1500, 10, 0, 800]

    def wtask(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, nfiles=2, backend=backend)
        f.fwrite(bytes([comm.rank]) * sizes[comm.rank])
        f.parclose()

    run_spmd(4, wtask)

    summary = dump_multifile(path, backend=backend)
    assert summary.total_bytes == sum(sizes)
    assert summary.maxblocks == 3  # task 0 needed 3 chunks

    extracted = split_multifile(path, f"{base}/x_{{rank}}.dat", backend=backend)
    for r, p in enumerate(extracted):
        with backend.open(p, "rb") as f:
            assert f.pread(0, backend.file_size(p)) == bytes([r]) * sizes[r]

    defragged = defragment(path, f"{base}/life_d.sion", backend=backend)
    d = dump_multifile(defragged, backend=backend)
    assert d.maxblocks == 1
    assert d.bytes_per_task == sizes

    # Defragmented multifile is readable by every access mode.
    with serial.open(defragged, "r", backend=backend) as sf:
        assert sf.read_task(0) == bytes([0]) * 1500
    with open_rank(defragged, 3, backend=backend) as rf:
        assert rf.read_all() == bytes([3]) * 800


def test_crash_recover_then_postprocess(any_backend):
    """A dying app's multifile is recovered and then fully usable."""
    backend, base = any_backend
    path = f"{base}/crashflow.sion"

    def wtask(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, shadow=True,
                    backend=backend)
        f.fwrite(bytes([comm.rank + 1]) * 1000)
        f.flush_shadow()
        f._raw.close()  # simulated crash before parclose

    run_spmd(3, wtask)

    report = recover_multifile(path, backend=backend)
    assert report.files_recovered == 1

    # Recovered file passes through the whole serial toolchain.
    out = defragment(path, f"{base}/crashflow_d.sion", backend=backend)
    with serial.open(out, "r", backend=backend) as sf:
        for r in range(3):
            assert sf.read_task(r) == bytes([r + 1]) * 1000


def test_simulation_checkpoint_restart_resume(any_backend):
    """Run MP2C, restart from its checkpoint, state identical."""
    backend, base = any_backend
    cfg = SimulationConfig(
        particles_per_task=60,
        nsteps=4,
        checkpoint_every=4,
        checkpoint_path=f"{base}/resume.sion",
        checkpoint_method="sion",
    )
    results = run_spmd(4, run_simulation, cfg, backend=backend)
    final = ParticleState.concatenate([r.state for r in results])

    def restart_task(comm):
        return read_restart(comm, f"{base}/resume.sion.step000004", "sion", backend)

    restored = run_spmd(4, restart_task)
    assert equal_states(final, ParticleState.concatenate(list(restored)))


def test_trace_to_analysis_pipeline_multifile(any_backend):
    """SMG2000-like tracing into 2 physical files, then wait-state search."""
    backend, base = any_backend
    cfg = SMG2000Config(ntasks=8, iterations=2, imbalance=0.5)
    path = f"{base}/pipeline.sion"

    def task(comm):
        exp = TraceExperiment(comm, path, method="sion", backend=backend, nfiles=2)
        exp.activate()
        generate_smg2000_trace(comm.rank, cfg, exp.tracer)
        stats = exp.finalize()
        result = analyze_traces(comm, path, method="sion", backend=backend)
        return stats, result

    out = run_spmd(8, task)
    stats = [s for s, _ in out]
    result = out[0][1]
    assert sum(s.written_bytes for s in stats) < sum(s.uncompressed_bytes for s in stats)
    assert result.total_wait_time > 0
    # The trace multifile is an ordinary multifile: tools work on it.
    summary = dump_multifile(path, backend=backend)
    assert summary.ntasks == 8
    assert summary.nfiles == 2
    assert summary.compressed is False  # app-level zlib, not transparent


def test_sim_backend_virtual_time_accounting(sim_backend):
    """The same code path on the simulator reports sensible virtual costs."""
    backend = sim_backend
    backend.fs.profile = None  # pure op counting

    def wtask(comm):
        f = paropen("/scratch/acct.sion", "w", comm, chunksize=TEST_BLKSIZE,
                    nfiles=2, backend=backend)
        f.fwrite(b"v" * 600)
        f.parclose()

    run_spmd(6, wtask)
    counts = backend.fs.op_counts
    assert counts["create"] == 2  # two physical files for six logical ones
    assert counts["write_bytes"] >= 6 * 600


def test_mixed_methods_same_simulation(any_backend):
    """Checkpoints via all three methods from one run hold identical state."""
    backend, base = any_backend

    def task(comm):
        state = ParticleState.random(
            25, (4.0, 4.0, 4.0), seed=comm.rank, id_offset=comm.rank * 25
        )
        from repro.apps.mp2c.checkpoint import write_restart

        for method in ("sion", "tasklocal", "singlefile"):
            write_restart(comm, f"{base}/mix_{method}", state, method=method,
                          backend=backend)
        return state

    written = run_spmd(4, task)

    def rtask(comm):
        return [
            read_restart(comm, f"{base}/mix_{m}", m, backend)
            for m in ("sion", "tasklocal", "singlefile")
        ]

    restored = run_spmd(4, rtask)
    reference = ParticleState.concatenate(list(written))
    for m_idx in range(3):
        got = ParticleState.concatenate([r[m_idx] for r in restored])
        assert equal_states(reference, got)
