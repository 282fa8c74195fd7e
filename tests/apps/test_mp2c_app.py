"""MP2C driver and checkpoint/restart across all three I/O methods."""

import numpy as np
import pytest

from repro.apps.mp2c import (
    SimulationConfig,
    read_restart,
    read_restart_any,
    run_simulation,
    write_restart,
)
from repro.apps.mp2c.decomposition import DomainDecomposition
from repro.apps.mp2c.particles import ParticleState, equal_states
from repro.errors import SpmdWorkerError
from repro.simmpi import run_spmd


def _collect(results):
    return ParticleState.concatenate([r if isinstance(r, ParticleState) else r.state for r in results])


class TestDriver:
    """I/O properties of a run: the state moves, and what is written reads back."""

    def test_conservation_over_run(self, any_backend):
        backend, base = any_backend
        cfg = SimulationConfig(particles_per_task=150, nsteps=5)
        results = run_spmd(8, run_simulation, cfg, backend=backend)
        ids = np.sort(np.concatenate([r.state.ids for r in results]))
        assert np.array_equal(ids, np.arange(8 * 150))
        assert all(r.steps_run == 5 for r in results)

    def test_particles_end_on_their_owners(self, any_backend):
        backend, base = any_backend
        cfg = SimulationConfig(particles_per_task=150, nsteps=5)
        results = run_spmd(8, run_simulation, cfg, backend=backend)
        decomp = DomainDecomposition.for_tasks(8, cfg.box)
        assert decomp.grid == (2, 2, 2)
        for rank, r in enumerate(results):
            assert (decomp.owner_of(r.state.pos) == rank).all()
        # Rank r starts with ids [r * 150, (r + 1) * 150): some must have moved.
        moved = sum(int((r.state.ids // 150 != rank).sum()) for rank, r in enumerate(results))
        assert moved > 0

    def test_checkpoints_written_on_schedule(self, any_backend):
        backend, base = any_backend
        cfg = SimulationConfig(
            particles_per_task=50,
            nsteps=6,
            checkpoint_every=2,
            checkpoint_path=f"{base}/drv.sion",
        )
        results = run_spmd(4, run_simulation, cfg, backend=backend)
        assert all(r.checkpoints_written == 3 for r in results)
        for step in (2, 4, 6):
            assert backend.exists(f"{base}/drv.sion.step{step:06d}")

    @pytest.mark.parametrize(
        "readers,read",
        [
            pytest.param(4, read_restart, id="same-count"),
            pytest.param(3, read_restart_any, id="other-count"),
        ],
    )
    def test_last_checkpoint_reads_back_as_final_state(self, any_backend, readers, read):
        backend, base = any_backend
        cfg = SimulationConfig(
            particles_per_task=80,
            nsteps=4,
            checkpoint_every=2,
            checkpoint_path=f"{base}/last.sion",
            checkpoint_nfiles=2,
        )
        results = run_spmd(4, run_simulation, cfg, backend=backend)
        path = f"{base}/last.sion.step000004"
        restored = run_spmd(readers, lambda comm: read(comm, path, backend=backend))
        if readers == 4:  # the same task count reads back rank for rank
            for r, back in zip(results, restored):
                assert equal_states(r.state, back)
        assert equal_states(_collect(results), _collect(restored))
        # Two checkpoints of a moving state differ.
        earlier = run_spmd(4, read_restart, f"{base}/last.sion.step000002", "sion", backend)
        assert not equal_states(_collect(results), _collect(earlier))

    def test_single_task_run(self, any_backend):
        backend, base = any_backend
        cfg = SimulationConfig(particles_per_task=64, nsteps=3)
        (res,) = run_spmd(1, run_simulation, cfg, backend=backend)
        assert res.state.n == 64


@pytest.mark.parametrize("method", ["sion", "tasklocal", "singlefile"])
class TestCheckpoint:
    def test_roundtrip_preserves_state(self, any_backend, method):
        backend, base = any_backend
        path = f"{base}/ck_{method}"
        box = (8.0, 8.0, 8.0)

        def wtask(comm):
            state = ParticleState.random(
                80, box, seed=comm.rank, id_offset=comm.rank * 80
            )
            write_restart(comm, path, state, method=method, backend=backend)
            return state

        written = run_spmd(4, wtask)

        def rtask(comm):
            return read_restart(comm, path, method=method, backend=backend)

        restored = run_spmd(4, rtask)
        assert equal_states(
            ParticleState.concatenate(list(written)),
            ParticleState.concatenate(list(restored)),
        )

    def test_roundtrip_with_migration(self, any_backend, method):
        backend, base = any_backend
        path = f"{base}/ckm_{method}"
        box = (8.0, 8.0, 8.0)

        def wtask(comm):
            state = ParticleState.random(
                40, box, seed=comm.rank + 5, id_offset=comm.rank * 40
            )
            write_restart(comm, path, state, method=method, backend=backend)
            return state

        written = run_spmd(8, wtask)

        def rtask(comm):
            decomp = DomainDecomposition.for_tasks(comm.size, box)
            state = read_restart(comm, path, method=method, backend=backend,
                                 decomp=decomp)
            owners = decomp.owner_of(state.pos)
            return state, bool((owners == comm.rank).all())

        out = run_spmd(8, rtask)
        assert all(ok for _, ok in out)
        assert equal_states(
            ParticleState.concatenate(list(written)).sorted_by_id(),
            ParticleState.concatenate([s for s, _ in out]).sorted_by_id(),
        )


def test_unknown_method_rejected(any_backend):
    backend, base = any_backend

    def task(comm):
        write_restart(comm, f"{base}/x", ParticleState.empty(), method="nfs",
                      backend=backend)

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, task)


def test_sion_checkpoint_single_physical_file(sim_backend):
    """Fig. 6's configuration: 1000 logical files -> one physical file."""
    backend = sim_backend

    def task(comm):
        state = ParticleState.random(10, (4.0, 4.0, 4.0), seed=comm.rank,
                                     id_offset=comm.rank * 10)
        write_restart(comm, "/scratch/one.sion", state, method="sion",
                      backend=backend)

    run_spmd(16, task)
    assert backend.fs.op_counts["create"] == 1
    assert list(backend.fs._files) == ["/scratch/one.sion"]
