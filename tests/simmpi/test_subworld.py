"""Sub-world sizing: the first-m-ranks communicator behind partitioned reads."""

import pytest

from repro.errors import CommunicatorError, SpmdWorkerError
from repro.simmpi import COMM_NULL, run_spmd


@pytest.mark.parametrize("engine", ["threads", "bulk"])
@pytest.mark.parametrize("m", [1, 3, 6])
def test_subworld_selects_first_m_ranks(engine, m):
    def task(comm):
        sub = comm.subworld(m)
        if comm.rank < m:
            assert sub is not None
            return (sub.rank, sub.size)
        assert sub is COMM_NULL
        return None

    out = run_spmd(6, task, engine=engine)
    assert out[:m] == [(r, m) for r in range(m)]
    assert out[m:] == [None] * (6 - m)


@pytest.mark.parametrize("engine", ["threads", "bulk"])
def test_subworld_drives_collectives(engine):
    """A write world re-enters as a smaller read world (the repartition
    workload's shape): only the sub-world participates in its collectives."""

    def task(comm):
        sub = comm.subworld(2)
        result = sub.allreduce(sub.rank) if sub is not None else -1
        comm.barrier()
        return result

    assert run_spmd(5, task, engine=engine) == [1, 1, -1, -1, -1]


@pytest.mark.parametrize("engine", ["threads", "bulk"])
@pytest.mark.parametrize("bad", [0, -1, 7])
def test_subworld_rejects_out_of_range_sizes(engine, bad):
    def task(comm):
        comm.subworld(bad)

    with pytest.raises(SpmdWorkerError) as exc:
        run_spmd(6, task, engine=engine)
    assert any(
        isinstance(e, CommunicatorError) for e in exc.value.failures.values()
    )


@pytest.mark.parametrize("engine", ["threads", "bulk"])
def test_subworld_of_the_whole_world_is_a_dup(engine):
    def task(comm):
        sub = comm.subworld(comm.size)
        return (sub.rank, sub.size, sub.allreduce(comm.rank))

    assert run_spmd(4, task, engine=engine) == [(r, 4, 6) for r in range(4)]


@pytest.mark.parametrize("engine", ["threads", "bulk"])
def test_subworld_nests_inside_a_split_group(engine):
    """Sub-world of a sub-communicator, then a sub-world of that: local
    ranks are the group's own, whatever the key order made them."""

    def task(comm):
        group = comm.split(color=comm.rank % 2, key=-comm.rank)  # 4 + 4, reversed
        first3 = group.subworld(3)
        if first3 is COMM_NULL:
            return None
        first2 = first3.subworld(2)
        inner = first2.allgather(comm.rank) if first2 is not COMM_NULL else None
        return (first3.rank, first3.allgather(comm.rank), inner)

    out = run_spmd(8, task, engine=engine)
    assert out[7] == (0, [7, 5, 3], [7, 5])
    assert out[3] == (2, [7, 5, 3], None)
    assert out[6] == (0, [6, 4, 2], [6, 4])
    assert out[0] is None and out[1] is None
