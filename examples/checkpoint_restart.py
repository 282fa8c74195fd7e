#!/usr/bin/env python
"""MP2C-style checkpoint/restart I/O (paper §5.1).

Runs the particle mini-app on 16 SPMD tasks — each step moves every
particle and migrates it to the task owning its new position — restarts
from its SION checkpoint, on 16 tasks and on 8, then writes a checkpoint
through all three I/O methods — SIONlib, task-local files, and the
single-file-sequential baseline MP2C originally used — reads each back,
and compares what lands on disk.

Run:  python examples/checkpoint_restart.py
"""

import os
import tempfile

from repro import simmpi
from repro.apps.mp2c import SimulationConfig, read_restart, read_restart_any, run_simulation
from repro.apps.mp2c.decomposition import DomainDecomposition
from repro.apps.mp2c.particles import ParticleState, equal_states

NTASKS = 16
PARTICLES_PER_TASK = 500


def main(workdir):
    cfg = SimulationConfig(
        particles_per_task=PARTICLES_PER_TASK,
        box=(16.0, 16.0, 16.0),
        nsteps=8,
        checkpoint_every=4,
        checkpoint_path=os.path.join(workdir, "restart.sion"),
        checkpoint_method="sion",
    )

    print(f"running MP2C mini-app: {NTASKS} tasks x {PARTICLES_PER_TASK} particles")
    results = simmpi.run_spmd(NTASKS, run_simulation, cfg)
    grid = DomainDecomposition.for_tasks(NTASKS, cfg.box).grid
    print(f"  grid {grid}, {cfg.nsteps} steps, "
          f"{sum(r.state.n for r in results)} particles after migration")

    ckpt = cfg.checkpoint_path + ".step000008"
    n_files = len(os.listdir(workdir))
    print(f"  checkpointed {NTASKS} tasks into {n_files} physical file(s): {ckpt}")

    # Restart: read back and re-migrate to owners.
    def restart(comm):
        decomp = DomainDecomposition.for_tasks(comm.size, cfg.box)
        return read_restart(comm, ckpt, "sion", decomp=decomp)

    restored = simmpi.run_spmd(NTASKS, restart)
    before = ParticleState.concatenate([r.state for r in results])
    after = ParticleState.concatenate(list(restored))
    assert equal_states(before, after)
    print(f"  restart verified: {after.n} particles bit-identical after reload")

    # The container does not fix the task count: restart on half as many.
    halved = simmpi.run_spmd(NTASKS // 2, lambda comm: read_restart_any(comm, ckpt))
    assert equal_states(before, ParticleState.concatenate(list(halved)))
    print(f"  restart on {NTASKS // 2} tasks verified: the same {after.n} particles\n")

    # Contrast the three checkpoint methods' file counts (the paper's point).
    from repro.apps.mp2c.checkpoint import write_restart

    for method in ("sion", "tasklocal", "singlefile"):
        subdir = os.path.join(workdir, f"ck-{method}")
        os.mkdir(subdir)

        def cycle(comm, m=method, d=subdir):
            state = ParticleState.random(
                100, cfg.box, seed=comm.rank, id_offset=comm.rank * 100
            )
            write_restart(comm, os.path.join(d, "ck"), state, method=m)
            comm.barrier()
            return equal_states(state, read_restart(comm, os.path.join(d, "ck"), m))

        assert all(simmpi.run_spmd(NTASKS, cycle))
        print(f"  method {method:<11} -> {len(os.listdir(subdir)):>3} physical file(s)")

    print("\nSIONlib keeps one file; task-local files scale with the task count —")
    print("at 64K tasks that difference is minutes of file creation (Fig. 3).")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="mp2c-") as tmp:
        main(tmp)
