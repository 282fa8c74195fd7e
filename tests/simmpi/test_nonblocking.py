"""Non-blocking point-to-point: isend/irecv/iprobe and requests."""

import time

import pytest

from repro.errors import CommunicatorError, SpmdWorkerError
from repro.simmpi import ANY_SOURCE, ANY_TAG, run_spmd


def test_isend_completes_immediately(engine="threads"):
    def fn(c):
        if c.rank == 0:
            req = c.isend("payload", dest=1)
            return req.completed
        return c.recv(source=0)

    out = run_spmd(2, fn, engine=engine)
    assert out[0] is True
    assert out[1] == "payload"


def test_irecv_wait(engine="threads"):
    def fn(c):
        if c.rank == 0:
            c.send({"k": 5}, dest=1, tag=3)
            return None
        req = c.irecv(source=0, tag=3)
        return req.wait()

    assert run_spmd(2, fn, engine=engine)[1] == {"k": 5}


def test_irecv_test_polls_until_ready():
    def fn(c):
        if c.rank == 0:
            time.sleep(0.05)
            c.send(42, dest=1)
            return None
        req = c.irecv(source=0)
        polls = 0
        while True:
            done, value = req.test()
            if done:
                return polls, value
            polls += 1
            time.sleep(0.005)

    polls, value = run_spmd(2, fn)[1]
    assert value == 42
    assert polls >= 1  # the message genuinely wasn't there at first


def test_request_wait_idempotent(engine="threads"):
    def fn(c):
        if c.rank == 0:
            c.send("once", dest=1)
            return None
        req = c.irecv(source=0)
        first = req.wait()
        second = req.wait()  # must not consume another message
        return first, second, req.completed

    assert run_spmd(2, fn, engine=engine)[1] == ("once", "once", True)


def test_test_after_completion_returns_cached(engine="threads"):
    def fn(c):
        if c.rank == 0:
            c.send(7, dest=1)
            return None
        req = c.irecv(source=0)
        req.wait()
        return req.test()

    assert run_spmd(2, fn, engine=engine)[1] == (True, 7)


def test_irecv_wildcards(engine="threads"):
    def fn(c):
        if c.rank == 0:
            got = [c.irecv(source=ANY_SOURCE, tag=ANY_TAG).wait() for _ in range(2)]
            return sorted(got)
        c.send(c.rank, dest=0, tag=c.rank)
        return None

    assert run_spmd(3, fn, engine=engine)[0] == [1, 2]


def test_iprobe_does_not_consume():
    def fn(c):
        if c.rank == 0:
            c.send("still-there", dest=1, tag=9)
            return None
        while not c.iprobe(source=0, tag=9):
            time.sleep(0.001)
        assert c.iprobe(source=0, tag=9)  # probing again still sees it
        return c.recv(source=0, tag=9)

    assert run_spmd(2, fn)[1] == "still-there"


def test_iprobe_false_when_empty(engine="threads"):
    def fn(c):
        return c.iprobe()

    assert run_spmd(2, fn, engine=engine) == [False, False]


def test_irecv_invalid_source(engine="threads"):
    def fn(c):
        c.irecv(source=10)

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, fn, engine=engine)
    assert any(
        isinstance(e, CommunicatorError) for e in exc_info.value.failures.values()
    )


def test_many_outstanding_requests_fifo_per_tag(engine="threads"):
    def fn(c):
        if c.rank == 0:
            for i in range(10):
                c.isend(i, dest=1, tag=0)
            return None
        reqs = [c.irecv(source=0, tag=0) for _ in range(10)]
        return [r.wait() for r in reqs]

    assert run_spmd(2, fn, engine=engine)[1] == list(range(10))


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
