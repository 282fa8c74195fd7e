"""Collective semantics of the SPMD substrate."""

import operator

import numpy as np
import pytest

from repro.errors import CommunicatorError, SpmdWorkerError
from repro.simmpi import run_spmd
from repro.simmpi.comm import make_world


def test_rank_and_size(engine="threads"):
    out = run_spmd(5, lambda c: (c.rank, c.size), engine=engine)
    assert out == [(r, 5) for r in range(5)]


def test_single_rank_world(engine="threads"):
    assert run_spmd(1, lambda c: c.allreduce(41) + 1, engine=engine) == [42]


def test_world_size_must_be_positive():
    with pytest.raises(CommunicatorError):
        make_world(0)


def test_barrier_all_ranks_pass(engine="threads"):
    out = run_spmd(4, lambda c: c.barrier() or "ok", engine=engine)
    assert out == ["ok"] * 4


def test_bcast_from_default_root(engine="threads"):
    out = run_spmd(4, lambda c: c.bcast("payload" if c.rank == 0 else None), engine=engine)
    assert out == ["payload"] * 4


def test_bcast_from_nonzero_root(engine="threads"):
    def fn(c):
        return c.bcast(c.rank * 10 if c.rank == 2 else None, root=2)

    assert run_spmd(4, fn, engine=engine) == [20] * 4


def test_bcast_invalid_root_raises(engine="threads"):
    with pytest.raises(SpmdWorkerError):
        run_spmd(2, lambda c: c.bcast(1, root=7), engine=engine)


def test_gather_collects_in_rank_order(engine="threads"):
    out = run_spmd(4, lambda c: c.gather(c.rank * c.rank), engine=engine)
    assert out[0] == [0, 1, 4, 9]
    assert out[1:] == [None, None, None]


def test_gather_at_other_root(engine="threads"):
    out = run_spmd(3, lambda c: c.gather(c.rank, root=2), engine=engine)
    assert out[2] == [0, 1, 2]
    assert out[0] is None and out[1] is None


def test_allgather(engine="threads"):
    out = run_spmd(4, lambda c: c.allgather(chr(ord("a") + c.rank)), engine=engine)
    assert out == [["a", "b", "c", "d"]] * 4


def test_scatter(engine="threads"):
    def fn(c):
        values = [i * 2 for i in range(c.size)] if c.rank == 0 else None
        return c.scatter(values)

    assert run_spmd(4, fn, engine=engine) == [0, 2, 4, 6]


def test_scatter_wrong_length_raises(engine="threads"):
    def fn(c):
        values = [1] if c.rank == 0 else None
        return c.scatter(values)

    with pytest.raises(SpmdWorkerError):
        run_spmd(3, fn, engine=engine)


def test_alltoall_is_transpose(engine="threads"):
    def fn(c):
        return c.alltoall([(c.rank, dst) for dst in range(c.size)])

    out = run_spmd(3, fn, engine=engine)
    for dst, inbox in enumerate(out):
        assert inbox == [(src, dst) for src in range(3)]


def test_reduce_default_sum(engine="threads"):
    out = run_spmd(5, lambda c: c.reduce(c.rank + 1), engine=engine)
    assert out[0] == 15
    assert out[1:] == [None] * 4


def test_allreduce_sum_everywhere(engine="threads"):
    assert run_spmd(5, lambda c: c.allreduce(c.rank), engine=engine) == [10] * 5


def test_allreduce_custom_op_max(engine="threads"):
    assert run_spmd(4, lambda c: c.allreduce(c.rank * 3, op=max), engine=engine) == [9] * 4


def test_allreduce_custom_op_min(engine="threads"):
    assert run_spmd(4, lambda c: c.allreduce(c.rank, op=min), engine=engine) == [0] * 4


def test_reduce_noncommutative_order(engine="threads"):
    # String concatenation exposes the reduction order: must be rank order.
    out = run_spmd(3, lambda c: c.reduce(str(c.rank), op=operator.add), engine=engine)
    assert out[0] == "012"


def test_numpy_payloads_are_copied(engine="threads"):
    def fn(c):
        arr = np.full(4, c.rank)
        gathered = c.allgather(arr)
        arr[:] = -1  # mutating the source must not affect what others got
        return gathered

    out = run_spmd(3, fn, engine=engine)
    for inbox in out:
        for src, a in enumerate(inbox):
            assert (a == src).all()


def test_bytearray_payloads_are_copied(engine="threads"):
    def fn(c):
        buf = bytearray([c.rank] * 3)
        got = c.allgather(buf)
        buf[0] = 99
        return got

    out = run_spmd(2, fn, engine=engine)
    assert out[0] == [bytearray([0, 0, 0]), bytearray([1, 1, 1])]


def test_many_sequential_collectives_reuse_slots(engine="threads"):
    def fn(c):
        acc = 0
        for i in range(50):
            acc += c.allreduce(i + c.rank)
        return acc

    out = run_spmd(3, fn, engine=engine)
    assert len(set(out)) == 1  # identical on every rank


def test_collective_values_none_payload(engine="threads"):
    # None must be transportable (it is also the non-root marker).
    out = run_spmd(2, lambda c: c.allgather(None), engine=engine)
    assert out == [[None, None], [None, None]]


# Every scenario above takes the engine as an argument defaulting to the
# thread engine; the same bodies run again on the other two transports.
_SCENARIOS = [
    fn for name, fn in sorted(globals().items())
    if name.startswith("test_") and fn.__defaults__ == ("threads",)
]


@pytest.mark.parametrize("scenario", _SCENARIOS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("engine", ["bulk", "proc"])
def test_same_on_engine(engine, scenario):
    scenario(engine=engine)
