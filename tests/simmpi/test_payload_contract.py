"""The normalized payload contract: buffers snapshot at deposit time.

``ndarray -> ndarray`` (copy), ``bytearray -> bytearray`` (copy), a
``memoryview`` of a mutable exporter ``-> bytes`` (immutable snapshot) —
and in every case the sender may scribble over its buffer the moment the
call returns without the receiver ever noticing.  A ``memoryview`` of an
immutable ``bytes`` cannot change, so it is kept (``repro.buffers.keep``):
in-process it arrives as a view of the sender's object, across processes
as ``bytes``.
"""

import threading

import numpy as np
import pytest

from repro.simmpi import run_spmd
from repro.simmpi.comm import make_world


def spmd(size, fn, engine="threads"):
    """Run ``fn(comm)`` on every rank; returns rank-ordered results.

    The thread engine is driven by hand over ``make_world`` — the
    contract holds for communicators however they are run."""
    if engine != "threads":
        return run_spmd(size, fn, engine=engine, timeout=30.0)
    comms = make_world(size, timeout=30.0)
    results = [None] * size
    errors = []

    def runner(rank):
        try:
            results[rank] = fn(comms[rank])
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append((rank, exc))
            comms[rank].abort()

    threads = [threading.Thread(target=runner, args=(r,)) for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0][1]
    return results


class TestMemoryviewSnapshots:
    def test_sliced_view_sends_only_the_window(self, engine="threads"):
        def task(comm):
            buf = bytearray(b"0123456789") if comm.rank == 0 else None
            got = comm.bcast(memoryview(buf)[3:7] if buf is not None else None)
            return None if comm.rank == 0 else got

        assert spmd(2, task, engine)[1] == b"3456"

    def test_non_contiguous_view_flattens_in_c_order(self, engine="threads"):
        def task(comm):
            arr = np.arange(10, dtype=np.uint8) if comm.rank == 0 else None
            got = comm.bcast(memoryview(arr[::2]) if arr is not None else None)
            return None if comm.rank == 0 else got

        assert spmd(2, task, engine)[1] == bytes([0, 2, 4, 6, 8])

    def test_bcast_snapshots_before_fanout(self, engine="threads"):
        def task(comm):
            buf = bytearray(b"root-data") if comm.rank == 0 else None
            view = memoryview(buf) if buf is not None else None
            got = comm.bcast(view, root=0)
            if buf is not None:
                buf[:] = b"XXXXXXXXX"  # the root reuses its buffer immediately
            assert type(got) is bytes
            return got

        assert spmd(3, task, engine) == [b"root-data"] * 3

    def test_gather_delivers_bytes_per_rank(self, engine="threads"):
        def task(comm):
            mine = bytearray([comm.rank]) * 4
            got = comm.gather(memoryview(mine), root=0)
            mine[:] = b"\xff" * 4
            return got

        results = spmd(3, task, engine)
        assert results[0] == [bytes([r]) * 4 for r in range(3)]
        assert results[1] is None and results[2] is None


class TestOtherBufferTypes:
    def test_bytearray_stays_bytearray_but_is_copied(self, engine="threads"):
        def task(comm):
            buf = bytearray(b"mutate-me") if comm.rank == 0 else None
            got = comm.bcast(buf)
            if comm.rank == 0:
                buf[:] = b"armageddo"
                return None
            assert type(got) is bytearray
            return bytes(got)

        assert spmd(2, task, engine)[1] == b"mutate-me"

    def test_ndarray_stays_ndarray_but_is_copied(self, engine="threads"):
        def task(comm):
            arr = np.arange(6, dtype=np.int32) if comm.rank == 0 else None
            got = comm.bcast(arr)
            if comm.rank == 0:
                arr += 100
                return None
            assert isinstance(got, np.ndarray)
            return got.tolist()

        assert spmd(2, task, engine)[1] == [0, 1, 2, 3, 4, 5]

    def test_immutable_payloads_travel_by_reference(self):
        marker = (1, "two", b"three")

        def task(comm):
            return comm.bcast(marker if comm.rank == 0 else None, root=0)

        results = spmd(2, task)
        assert results[0] is marker and results[1] is marker


# Every scenario that takes the engine runs again on the other two
# transports (by-reference travel of immutables is in-process only).
_SCENARIOS = [
    (cls, name)
    for cls in (TestMemoryviewSnapshots, TestOtherBufferTypes)
    for name, fn in sorted(vars(cls).items())
    if name.startswith("test_") and fn.__defaults__ == ("threads",)
]


@pytest.mark.parametrize("cls,name", _SCENARIOS, ids=[name for _, name in _SCENARIOS])
@pytest.mark.parametrize("engine", ["bulk", "proc"])
def test_same_on_engine(engine, cls, name):
    getattr(cls(), name)(engine=engine)


#: The one immutable object the view rows below slice.
BLOB = bytes(range(32))


def _views_of_blob(comm):
    """What rank 1 receives of rank 0's views of ``BLOB``: two ``gatherv``
    fragments, a ``bcast``, a ``scatterv`` fragment and a ``bcast`` of the
    whole."""
    mine = memoryview(BLOB)[8 * comm.rank : 8 * comm.rank + 8]
    gathered = comm.gatherv([mine, mine[2:5]], root=1)
    got = comm.bcast(mine if comm.rank == 0 else None, root=0)
    whole = comm.bcast(memoryview(BLOB) if comm.rank == 0 else None, root=0)
    (sent,) = comm.scatterv([[mine[1:3]]] * 2 if comm.rank == 0 else None, root=0)
    if comm.rank == 0:
        return None
    return [*gathered[0], got, sent, whole]


@pytest.mark.parametrize("engine", ["threads", "bulk"])
def test_views_of_bytes_arrive_as_views_of_the_senders_object(engine):
    got = spmd(2, _views_of_blob, engine)[1]
    frag, part, bcast, sent, whole = got
    for view in (frag, part, bcast, sent):
        assert type(view) is memoryview and view.obj is BLOB
    assert whole is BLOB
    assert [bytes(v) for v in got] == [BLOB[0:8], BLOB[2:5], BLOB[0:8], BLOB[1:3], BLOB]


def test_views_of_bytes_arrive_as_bytes_across_processes():
    got = spmd(2, _views_of_blob, "proc")[1]
    assert [type(v) for v in got] == [bytes] * 5
    assert got == [BLOB[0:8], BLOB[2:5], BLOB[0:8], BLOB[1:3], BLOB]

