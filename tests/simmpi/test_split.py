"""Communicator splitting, duplication, and sub-communicator collectives.

Every scenario takes the engine as an argument defaulting to the thread
engine — the reference — and ``test_same_on_bulk_engine`` at the bottom
runs each of them again on the bulk engine, which logs one shared plan
per split wave and rebuilds the communicator from it on every replay
(see :mod:`repro.simmpi.bulk`).
"""

import gc

import pytest

from repro.simmpi import COMM_NULL, run_spmd
from repro.simmpi.bulk import BulkComm


def test_split_even_odd(engine="threads"):
    def fn(c):
        sub = c.split(color=c.rank % 2)
        return (sub.rank, sub.size, c.rank % 2)

    out = run_spmd(6, fn, engine=engine)
    for r, (srank, ssize, color) in enumerate(out):
        assert ssize == 3
        assert srank == r // 2 if color == 0 else True
    evens = [out[r][0] for r in (0, 2, 4)]
    odds = [out[r][0] for r in (1, 3, 5)]
    assert evens == [0, 1, 2]
    assert odds == [0, 1, 2]


def test_split_with_none_color_gets_comm_null(engine="threads"):
    def fn(c):
        sub = c.split(color=0 if c.rank < 2 else None)
        if sub is COMM_NULL:
            return "null"
        return (sub.rank, sub.size)

    out = run_spmd(4, fn, engine=engine)
    assert out[:2] == [(0, 2), (1, 2)]
    assert out[2:] == ["null", "null"]


def test_split_with_none_color_everywhere(engine="threads"):
    """A whole world may opt out; the parent stays usable afterwards."""

    def fn(c):
        sub = c.split(color=None, key=c.rank)
        return (sub is COMM_NULL, c.allreduce(1))

    assert run_spmd(5, fn, engine=engine) == [(True, 5)] * 5


def test_split_key_reorders_ranks(engine="threads"):
    def fn(c):
        # Reverse order within the single group.
        sub = c.split(color=0, key=-c.rank)
        return sub.rank

    out = run_spmd(4, fn, engine=engine)
    assert out == [3, 2, 1, 0]


def test_split_key_ties_break_by_old_rank(engine="threads"):
    def fn(c):
        sub = c.split(color=0, key=0)
        return sub.rank

    assert run_spmd(4, fn, engine=engine) == [0, 1, 2, 3]


def test_split_orders_by_key_then_old_rank_within_each_color(engine="threads"):
    """Negative, reversed and tied keys, and colors that are neither dense
    nor non-negative: new ranks follow ``(key, old rank)`` per color."""
    n = 12
    colors = [(-3, 7, 1000)[r % 3] for r in range(n)]
    keys = [(5, -2, 5, 0, -2, 9)[r % 6] - r // 6 for r in range(n)]

    def fn(c):
        sub = c.split(color=colors[c.rank], key=keys[c.rank])
        return (sub.rank, sub.size, sub.allgather(c.rank))

    out = run_spmd(n, fn, engine=engine)
    for color in set(colors):
        members = sorted(
            (r for r in range(n) if colors[r] == color), key=lambda r: (keys[r], r)
        )
        for new_rank, old in enumerate(members):
            assert out[old] == (new_rank, len(members), members)


def test_collectives_on_subcommunicator(engine="threads"):
    def fn(c):
        sub = c.split(color=c.rank // 2)
        return sub.allreduce(c.rank)

    out = run_spmd(6, fn, engine=engine)
    assert out == [1, 1, 5, 5, 9, 9]


def test_parent_still_usable_after_split(engine="threads"):
    def fn(c):
        sub = c.split(color=c.rank % 2)
        local = sub.allreduce(1)
        total = c.allreduce(local)
        return total

    out = run_spmd(4, fn, engine=engine)
    assert out == [8] * 4  # each rank contributes its subgroup size (2)


def test_nested_split(engine="threads"):
    def fn(c):
        half = c.split(color=c.rank // 4)
        quarter = half.split(color=half.rank // 2)
        return (half.size, quarter.size, quarter.rank)

    out = run_spmd(8, fn, engine=engine)
    for halfsize, qsize, qrank in out:
        assert halfsize == 4
        assert qsize == 2
        assert qrank in (0, 1)


def test_three_level_nested_split(engine="threads"):
    """Each level reorders; a collective on the innermost communicator
    sees exactly its members, in the innermost order."""

    def fn(c):
        a = c.split(color=c.rank % 2, key=-c.rank)  # 6 + 6, reversed
        b = a.split(color=a.rank // 3, key=a.rank)  # 3 + 3
        d = b.split(color=None if b.rank == 1 else 0, key=-b.rank)  # 2, one out
        sizes = (b.allreduce(1), a.allreduce(1))
        if d is COMM_NULL:
            return ("null", a.rank, b.rank)
        return (d.rank, d.size, d.allgather(c.rank), *sizes)

    out = run_spmd(12, fn, engine=engine)
    # Old rank 11 leads the odd half (key -11): a.rank 0, b.rank 0, and in
    # ``d`` it sorts behind old rank 7 (b.rank 2, key -2).
    assert out[11] == (1, 2, [7, 11], 3, 6)
    assert out[7] == (0, 2, [7, 11], 3, 6)
    assert out[9] == ("null", 1, 1)
    assert [sum(o[0] == which for o in out) for which in (0, 1, "null")] == [4, 4, 4]


def test_dup_preserves_shape_and_isolates_traffic(engine="threads"):
    def fn(c):
        d = c.dup()
        assert (d.rank, d.size) == (c.rank, c.size)
        # Collectives on the dup, interleaved with the parent's, must not
        # interfere with them.
        dup = d.bcast("dup-msg" if c.rank == 0 else None)
        parent = c.bcast("parent-msg" if c.rank == 0 else None)
        return None if c.rank == 0 else (parent, dup)

    out = run_spmd(2, fn, engine=engine)
    assert out[1] == ("parent-msg", "dup-msg")


def test_rooted_collective_within_split_group_uses_new_ranks(engine="threads"):
    def fn(c):
        sub = c.split(color=c.rank % 2)
        got = sub.bcast(f"group{c.rank % 2}" if sub.rank == 0 else None, root=0)
        return None if sub.rank == 0 else got

    out = run_spmd(4, fn, engine=engine)
    assert out[2] == "group0"
    assert out[3] == "group1"


def test_repeated_splits_are_independent(engine="threads"):
    def fn(c):
        sizes = []
        for _ in range(5):
            sub = c.split(color=c.rank % 2)
            sizes.append(sub.size)
        return sizes

    out = run_spmd(4, fn, engine=engine)
    assert all(s == [2] * 5 for s in out)


_SCENARIOS = [
    fn for name, fn in sorted(globals().items())
    if name.startswith("test_") and fn.__defaults__ == ("threads",)
]


@pytest.mark.parametrize("scenario", _SCENARIOS, ids=lambda fn: fn.__name__)
def test_same_on_bulk_engine(scenario):
    scenario(engine="bulk")


def test_bulk_split_stores_no_per_rank_communicator():
    """O(1) engine objects per rank, sub-worlds included: with 16384 ranks
    through two nested splits and parked, only the communicators of the one
    rank on the worker exist — a split logs one shared plan, not a
    ``BulkComm`` per rank."""
    n = 16384

    def count_comms():
        return sum(type(o) is BulkComm for o in gc.get_objects())

    def fn(c):
        lcom = c.split(color=c.rank * 4 // c.size, key=c.rank)
        ccom = lcom.split(color=lcom.rank // 64, key=-lcom.rank)
        c.barrier()  # every rank has logged both splits ...
        alive = c.exec_once(count_comms) if c.rank == 0 else None
        c.barrier()  # ... and is parked here, or not yet back on a worker
        return (lcom.rank, lcom.size, ccom.rank, ccom.size, alive)

    out = run_spmd(n, fn, engine="bulk", nworkers=1)
    assert out[0][4] < 100, out[0][4]
    for r in (0, 1, 63, 64, 4095, 4096, 9999, n - 1):
        assert out[r][:4] == (r % 4096, 4096, 63 - r % 64, 64)
