"""Regular 3-D domain decomposition with ownership migration.

MP2C distributes "geometrical domains of the same volume across the
different processes" (paper §5.1).  We factor the task count into a 3-D
process grid, assign each task an axis-aligned box of the periodic
simulation domain, and migrate particles to their owners after every
streaming step via an all-to-all exchange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.mp2c.particles import ParticleState
from repro.errors import ReproError
from repro.simmpi.comm import Comm


def factor3(n: int) -> tuple[int, int, int]:
    """Factor ``n`` into three near-equal factors (largest first)."""
    if n < 1:
        raise ReproError(f"cannot build a process grid for {n} tasks")
    best: tuple[int, int, int] | None = None
    best_score: tuple[int, int] | None = None
    for a in range(1, int(round(n ** (1 / 3))) + 2):
        if n % a:
            continue
        m = n // a
        for b in range(a, int(np.sqrt(m)) + 1):
            if m % b:
                continue
            c = m // b
            dims = tuple(sorted((a, b, c), reverse=True))
            score = (dims[0] - dims[2], dims[0])  # prefer cubic
            if best_score is None or score < best_score:
                best, best_score = dims, score
    if best is None:  # n is prime
        best = (n, 1, 1)
    return best  # type: ignore[return-value]


@dataclass(frozen=True)
class DomainDecomposition:
    """Partition of a periodic box over a 3-D process grid."""

    box: tuple[float, float, float]
    grid: tuple[int, int, int]

    @classmethod
    def for_tasks(
        cls, ntasks: int, box: tuple[float, float, float]
    ) -> "DomainDecomposition":
        """Decompose ``box`` over a near-cubic grid of ``ntasks`` domains."""
        return cls(box=box, grid=factor3(ntasks))

    @property
    def ntasks(self) -> int:
        gx, gy, gz = self.grid
        return gx * gy * gz

    def coords_of(self, rank: int) -> tuple[int, int, int]:
        """Grid coordinates of ``rank`` (x fastest)."""
        gx, gy, gz = self.grid
        if not 0 <= rank < gx * gy * gz:
            raise ReproError(f"rank {rank} outside grid {self.grid}")
        x = rank % gx
        y = (rank // gx) % gy
        z = rank // (gx * gy)
        return x, y, z

    def bounds_of(self, rank: int) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned ``(lo, hi)`` corners of ``rank``'s domain."""
        x, y, z = self.coords_of(rank)
        sizes = np.asarray(self.box) / np.asarray(self.grid)
        lo = sizes * np.asarray([x, y, z], dtype=float)
        return lo, lo + sizes

    def owner_of(self, pos: np.ndarray) -> np.ndarray:
        """Owning rank per particle position (positions wrapped first)."""
        box = np.asarray(self.box)
        grid = np.asarray(self.grid)
        wrapped = np.mod(pos, box)
        cell = np.floor(wrapped / box * grid).astype(np.int64)
        cell = np.minimum(cell, grid - 1)  # guard the pos == box edge
        return cell[:, 0] + cell[:, 1] * grid[0] + cell[:, 2] * grid[0] * grid[1]

    def wrap(self, pos: np.ndarray) -> np.ndarray:
        """Apply periodic boundary conditions."""
        return np.mod(pos, np.asarray(self.box))


def migrate(
    comm: Comm, decomp: DomainDecomposition, state: ParticleState
) -> ParticleState:
    """Exchange particles so each ends up on the task owning its position.

    Collective: every task partitions its particles by destination and
    performs an all-to-all.  Positions are wrapped into the periodic box
    as part of migration.
    """
    if decomp.ntasks != comm.size:
        raise ReproError(
            f"decomposition has {decomp.ntasks} domains, "
            f"communicator has {comm.size} tasks"
        )
    wrapped = decomp.wrap(state.pos)
    state = ParticleState(state.ids, wrapped, state.vel)
    owners = decomp.owner_of(state.pos)
    outboxes = [state.select(owners == dst) for dst in range(comm.size)]
    inboxes = comm.alltoall(outboxes)
    return ParticleState.concatenate(inboxes)
