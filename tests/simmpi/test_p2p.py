"""Point-to-point messaging: matching, tags, wildcards, ordering."""

import pytest

from repro.errors import SpmdWorkerError
from repro.simmpi import ANY_SOURCE, ANY_TAG, run_spmd


def test_simple_send_recv(engine="threads"):
    def fn(c):
        if c.rank == 0:
            c.send({"x": 1}, dest=1)
            return None
        return c.recv(source=0)

    assert run_spmd(2, fn, engine=engine)[1] == {"x": 1}


def test_self_send(engine="threads"):
    def fn(c):
        c.send("loop", dest=c.rank, tag=5)
        return c.recv(source=c.rank, tag=5)

    assert run_spmd(3, fn, engine=engine) == ["loop"] * 3


def test_tag_matching_selects_correct_message(engine="threads"):
    def fn(c):
        if c.rank == 0:
            c.send("a", dest=1, tag=1)
            c.send("b", dest=1, tag=2)
            return None
        second = c.recv(source=0, tag=2)
        first = c.recv(source=0, tag=1)
        return (first, second)

    assert run_spmd(2, fn, engine=engine)[1] == ("a", "b")


def test_wildcard_source(engine="threads"):
    def fn(c):
        if c.rank == 0:
            got = [c.recv(source=ANY_SOURCE, tag=7) for _ in range(c.size - 1)]
            return sorted(got)
        c.send(c.rank, dest=0, tag=7)
        return None

    assert run_spmd(4, fn, engine=engine)[0] == [1, 2, 3]


def test_wildcard_tag_with_status(engine="threads"):
    def fn(c):
        if c.rank == 0:
            c.send("hello", dest=1, tag=42)
            return None
        value, src, tag = c.recv(source=0, tag=ANY_TAG, return_status=True)
        return (value, src, tag)

    assert run_spmd(2, fn, engine=engine)[1] == ("hello", 0, 42)


def test_fifo_order_same_source_tag(engine="threads"):
    def fn(c):
        if c.rank == 0:
            for i in range(10):
                c.send(i, dest=1, tag=0)
            return None
        return [c.recv(source=0, tag=0) for _ in range(10)]

    assert run_spmd(2, fn, engine=engine)[1] == list(range(10))


def test_ring_sendrecv(engine="threads"):
    def fn(c):
        right = (c.rank + 1) % c.size
        left = (c.rank - 1) % c.size
        return c.sendrecv(c.rank, dest=right, source=left)

    out = run_spmd(5, fn, engine=engine)
    assert out == [(r - 1) % 5 for r in range(5)]


def test_invalid_dest_raises(engine="threads"):
    with pytest.raises(SpmdWorkerError):
        run_spmd(2, lambda c: c.send(1, dest=5), engine=engine)


def test_negative_tag_raises(engine="threads"):
    with pytest.raises(SpmdWorkerError):
        run_spmd(2, lambda c: c.send(1, dest=0, tag=-3), engine=engine)


def test_invalid_source_raises(engine="threads"):
    with pytest.raises(SpmdWorkerError):
        run_spmd(2, lambda c: c.recv(source=9), engine=engine)


def test_recv_timeout_raises_instead_of_hanging(engine="threads"):
    def fn(c):
        if c.rank == 1:
            return c.recv(source=0)  # never sent
        return None

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, fn, timeout=0.2, engine=engine)
    assert 1 in exc_info.value.failures


def test_messages_do_not_cross_ranks(engine="threads"):
    def fn(c):
        c.send(f"for-{(c.rank + 1) % c.size}", dest=(c.rank + 1) % c.size)
        return c.recv()

    out = run_spmd(4, fn, engine=engine)
    assert out == [f"for-{r}" for r in range(4)]


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
