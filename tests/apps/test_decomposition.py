"""Domain decomposition: grid factorization, ownership, migration."""

import numpy as np
import pytest

from repro.apps.mp2c.decomposition import DomainDecomposition, factor3, migrate
from repro.apps.mp2c.particles import ParticleState, equal_states
from repro.errors import ReproError
from repro.simmpi import run_spmd


class TestFactor3:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1, 1, 1)), (8, (2, 2, 2)), (6, (3, 2, 1)), (64, (4, 4, 4)),
         (7, (7, 1, 1)), (12, (3, 2, 2)), (1000, (10, 10, 10))],
    )
    def test_known_factorizations(self, n, expected):
        assert factor3(n) == expected

    def test_product_always_matches(self):
        for n in range(1, 200):
            a, b, c = factor3(n)
            assert a * b * c == n
            assert a >= b >= c >= 1

    def test_invalid(self):
        with pytest.raises(ReproError):
            factor3(0)


class TestDecomposition:
    def test_coords_roundtrip(self):
        d = DomainDecomposition(box=(8.0, 8.0, 8.0), grid=(4, 2, 1))
        coords = [d.coords_of(r) for r in range(8)]
        assert coords[:5] == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0)]
        assert len(set(coords)) == 8  # x fastest, one rank per grid cell
        for r, (x, y, z) in enumerate(coords):
            lo, hi = d.bounds_of(r)
            assert lo.tolist() == [2.0 * x, 4.0 * y, 0.0]
            assert hi.tolist() == [2.0 * x + 2.0, 4.0 * y + 4.0, 8.0]

    def test_bounds_tile_the_box(self):
        d = DomainDecomposition.for_tasks(8, (8.0, 6.0, 4.0))
        volumes = 0.0
        for r in range(8):
            lo, hi = d.bounds_of(r)
            assert (hi > lo).all()
            volumes += float(np.prod(hi - lo))
        assert volumes == pytest.approx(8.0 * 6.0 * 4.0)

    def test_owner_matches_bounds(self):
        d = DomainDecomposition.for_tasks(8, (4.0, 4.0, 4.0))
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 4.0, size=(200, 3))
        owners = d.owner_of(pos)
        for p, o in zip(pos, owners):
            lo, hi = d.bounds_of(int(o))
            assert (p >= lo - 1e-12).all() and (p <= hi + 1e-12).all()

    def test_owner_wraps_periodic_positions(self):
        d = DomainDecomposition.for_tasks(4, (4.0, 4.0, 4.0))
        inside = np.array([[1.0, 1.0, 1.0]])
        outside = inside + np.array([[4.0, -4.0, 8.0]])
        assert d.owner_of(inside) == d.owner_of(outside)

    def test_boundary_position_owned(self):
        d = DomainDecomposition.for_tasks(8, (4.0, 4.0, 4.0))
        edge = np.array([[4.0, 4.0, 4.0]])  # == box: wraps to origin cell
        assert 0 <= int(d.owner_of(edge)[0]) < 8

    def test_bad_rank(self):
        d = DomainDecomposition.for_tasks(4, (1.0, 1.0, 1.0))
        with pytest.raises(ReproError):
            d.coords_of(99)


class TestMigrate:
    def test_particles_end_up_with_their_owners(self):
        box = (8.0, 8.0, 8.0)

        def task(comm):
            d = DomainDecomposition.for_tasks(comm.size, box)
            state = ParticleState.random(
                50, box, seed=comm.rank, id_offset=comm.rank * 50
            )
            out = migrate(comm, d, state)
            owners = d.owner_of(out.pos)
            return (out.n, bool((owners == comm.rank).all()))

        results = run_spmd(8, task)
        assert sum(n for n, _ in results) == 8 * 50
        assert all(ok for _, ok in results)

    def test_migration_preserves_global_state(self):
        box = (4.0, 4.0, 4.0)

        def task(comm):
            d = DomainDecomposition.for_tasks(comm.size, box)
            state = ParticleState.random(
                30, box, seed=comm.rank + 7, id_offset=comm.rank * 30
            )
            before = comm.allgather(state)
            after = migrate(comm, d, state)
            return before if comm.rank == 0 else None, after

        results = run_spmd(4, task)
        before = ParticleState.concatenate(list(results[0][0]))
        # Positions may be wrapped; wrap the reference identically.
        d = DomainDecomposition.for_tasks(4, box)
        before = ParticleState(before.ids, d.wrap(before.pos), before.vel)
        after = ParticleState.concatenate([r[1] for r in results])
        assert equal_states(before, after)

    def test_size_mismatch_rejected(self):
        from repro.errors import SpmdWorkerError

        def task(comm):
            d = DomainDecomposition.for_tasks(comm.size + 1, (1.0, 1.0, 1.0))
            migrate(comm, d, ParticleState.empty())

        with pytest.raises(SpmdWorkerError):
            run_spmd(2, task)
