"""SPMD runner: result collection, failure handling, deadlock safety."""

import pytest

from repro.errors import CollectiveMismatchError, SpmdWorkerError
from repro.simmpi import run_spmd


def test_results_in_rank_order():
    assert run_spmd(6, lambda c: c.rank**2) == [0, 1, 4, 9, 16, 25]


def test_kwargs_forwarded():
    def fn(c, base, scale=1):
        return base + c.rank * scale

    assert run_spmd(3, fn, 100, scale=10) == [100, 110, 120]


def test_single_failure_reported_with_rank():
    def fn(c):
        if c.rank == 2:
            raise ValueError("boom")
        return c.rank

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(4, fn)
    assert set(exc_info.value.failures) == {2}
    assert isinstance(exc_info.value.failures[2], ValueError)


def test_failure_during_collective_releases_other_ranks():
    # Rank 1 dies before the collective; the others must not deadlock.
    def fn(c):
        if c.rank == 1:
            raise RuntimeError("early death")
        return c.allreduce(1)

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, fn)
    # Only the true failure is reported; abort fallout is filtered.
    assert set(exc_info.value.failures) == {1}


def test_multiple_independent_failures_all_reported():
    def fn(c):
        raise KeyError(c.rank)

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, fn)
    assert set(exc_info.value.failures) == {0, 1, 2}


def test_collective_mismatch_detected():
    def fn(c):
        if c.rank == 0:
            return c.gather(1)
        return c.allgather(1)

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, fn)
    assert any(
        isinstance(e, CollectiveMismatchError)
        for e in exc_info.value.failures.values()
    )


def test_barrier_timeout_does_not_hang():
    def fn(c):
        if c.rank == 0:
            return "skipped the barrier"
        c.barrier()
        return "passed"

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, fn, timeout=0.2)


def test_error_message_names_first_failure():
    def fn(c):
        if c.rank == 1:
            raise ValueError("specific cause")
        return None

    with pytest.raises(SpmdWorkerError, match="specific cause"):
        run_spmd(2, fn)


def test_large_world():
    out = run_spmd(64, lambda c: c.allreduce(1))
    assert out == [64] * 64
