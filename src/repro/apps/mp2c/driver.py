"""Runnable MP2C-like simulation loop with periodic checkpointing.

Each step moves every particle ballistically (``pos += vel * dt``) and
migrates it to the task owning its new position, so the checkpoint I/O
runs against a state that changes and moves between tasks.  Checkpoints
go through a selectable I/O method.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.mp2c.checkpoint import write_restart
from repro.apps.mp2c.decomposition import DomainDecomposition, migrate
from repro.apps.mp2c.particles import ParticleState
from repro.backends.base import Backend
from repro.errors import ReproError
from repro.simmpi.comm import Comm


@dataclass
class SimulationConfig:
    """Parameters of one mini-app run."""

    particles_per_task: int = 1000
    box: tuple[float, float, float] = (16.0, 16.0, 16.0)
    dt: float = 0.1
    nsteps: int = 10
    checkpoint_every: int = 0  # 0 = never
    checkpoint_path: str = "restart.sion"
    checkpoint_method: str = "sion"
    checkpoint_nfiles: int = 1
    seed: int = 42


@dataclass
class SimulationResult:
    """Per-task outcome: final state and how much was run."""

    state: ParticleState
    checkpoints_written: int
    steps_run: int


def run_simulation(
    comm: Comm, config: SimulationConfig, backend: Backend | None = None
) -> SimulationResult:
    """SPMD entry point: run ``config.nsteps`` steps, checkpointing on schedule.

    Collective over ``comm``.  Each task starts with
    ``config.particles_per_task`` particles inside its own domain; the
    checkpoint written at step ``s`` goes to
    ``f"{config.checkpoint_path}.step{s:06d}"``.
    """
    if config.nsteps < 0:
        raise ReproError("nsteps must be non-negative")
    decomp = DomainDecomposition.for_tasks(comm.size, config.box)
    lo, hi = decomp.bounds_of(comm.rank)
    state = ParticleState.random(
        config.particles_per_task,
        tuple(float(e) for e in hi - lo),
        seed=config.seed + comm.rank,
        id_offset=comm.rank * config.particles_per_task,
    )
    state = ParticleState(state.ids, state.pos + lo, state.vel)

    checkpoints = 0
    for step in range(1, config.nsteps + 1):
        state = ParticleState(state.ids, state.pos + state.vel * config.dt, state.vel)
        state = migrate(comm, decomp, state)
        if config.checkpoint_every and step % config.checkpoint_every == 0:
            write_restart(
                comm,
                f"{config.checkpoint_path}.step{step:06d}",
                state,
                method=config.checkpoint_method,
                backend=backend,
                nfiles=config.checkpoint_nfiles,
            )
            checkpoints += 1

    return SimulationResult(
        state=state, checkpoints_written=checkpoints, steps_run=config.nsteps
    )
