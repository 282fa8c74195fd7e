"""The normalized payload contract: buffers snapshot at deposit time.

``ndarray -> ndarray`` (copy), ``bytearray -> bytearray`` (copy),
``memoryview -> bytes`` (immutable snapshot) — and in every case the
sender may scribble over its buffer the moment the call returns without
the receiver ever noticing.
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
    def test_send_recv_snapshots_a_memoryview(self, engine="threads"):
        def task(comm):
            if comm.rank == 0:
                buf = bytearray(b"payload!")
                comm.send(memoryview(buf), dest=1)
                buf[:] = b"SCRIBBLE"  # sender reuses its buffer immediately
                return None
            got = comm.recv(source=0)
            assert type(got) is bytes
            return got

        assert spmd(2, task, engine)[1] == b"payload!"

    def test_sliced_view_sends_only_the_window(self, engine="threads"):
        def task(comm):
            if comm.rank == 0:
                buf = bytearray(b"0123456789")
                comm.send(memoryview(buf)[3:7], dest=1)
                return None
            return comm.recv(source=0)

        assert spmd(2, task, engine)[1] == b"3456"

    def test_non_contiguous_view_flattens_in_c_order(self, engine="threads"):
        def task(comm):
            if comm.rank == 0:
                arr = np.arange(10, dtype=np.uint8)
                comm.send(memoryview(arr[::2]), dest=1)
                return None
            return comm.recv(source=0)

        assert spmd(2, task, engine)[1] == bytes([0, 2, 4, 6, 8])

    def test_bcast_snapshots_before_fanout(self, engine="threads"):
        def task(comm):
            buf = bytearray(b"root-data") if comm.rank == 0 else None
            view = memoryview(buf) if buf is not None else None
            got = comm.bcast(view, root=0)
            if buf is not None:
                buf[:] = b"XXXXXXXXX"
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

    def test_isend_snapshots_like_send(self, engine="threads"):
        def task(comm):
            if comm.rank == 0:
                buf = bytearray(b"async")
                req = comm.isend(memoryview(buf), dest=1)
                buf[:] = b"!!!!!"
                req.wait()
                return None
            return comm.recv(source=0)

        assert spmd(2, task, engine)[1] == b"async"


class TestOtherBufferTypes:
    def test_bytearray_stays_bytearray_but_is_copied(self, engine="threads"):
        def task(comm):
            if comm.rank == 0:
                buf = bytearray(b"mutate-me")
                comm.send(buf, dest=1)
                buf[:] = b"armageddo"
                return None
            got = comm.recv(source=0)
            assert type(got) is bytearray
            return bytes(got)

        assert spmd(2, task, engine)[1] == b"mutate-me"

    def test_ndarray_stays_ndarray_but_is_copied(self, engine="threads"):
        def task(comm):
            if comm.rank == 0:
                arr = np.arange(6, dtype=np.int32)
                comm.send(arr, dest=1)
                arr += 100
                return None
            got = comm.recv(source=0)
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
