"""One ``Comm``, three transports: one table of programs, three engines.

``repro.simmpi.comm.Comm`` defines the communicator surface once; the
thread, bulk and process engines supply only a transport.  Part (i) runs
every program of the table below on all three and requires equal results
— or, for an illegal call, the same exception type and message on the
primary failing rank.  Part (ii) pins the structure that makes (i) hold
by construction: no engine class defines any public name, and the process
engine moves every collective over one transport.

The programs are module-level functions so that the whole table also runs
under the ``spawn`` start method (CI: ``REPRO_PROC_START=spawn``).
"""

import hashlib
import inspect
import operator

import numpy as np
import pytest

import repro.simmpi.bulk
import repro.simmpi.comm
import repro.simmpi.proc
from repro.errors import SpmdWorkerError
from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    COMM_NULL,
    BulkComm,
    Comm,
    ProcComm,
    Request,
    ThreadComm,
    run_spmd,
)

ENGINES = ("threads", "bulk", "proc")

# --------------------------------------------------------------------------
# (i) Programs with a result.


def every_collective(c):
    row = [(c.rank, dst) for dst in range(c.size)]
    return (
        c.barrier(),
        c.bcast("cfg" if c.rank == c.size - 1 else None, root=c.size - 1),
        c.gather(c.rank * 3),
        c.allgather(c.rank**2),
        c.gatherv([bytes([c.rank])] * c.rank, root=0),
        c.scatterv([[i] * i for i in range(c.size)] if c.rank == 0 else None),
        c.scatter([10 * i for i in range(c.size)] if c.rank == 0 else None),
        c.alltoall(row),
        c.reduce(c.rank + 1),
        c.allreduce(c.rank + 1),
    )


def reduce_at_nonzero_root(c):
    return c.reduce([c.rank], root=c.size - 1)


def allreduce_max(c):
    return c.allreduce((c.rank * 7) % 5, op=max)


def reduce_noncommutative_op(c):
    return c.reduce(str(c.rank), op=operator.add, root=1)


def ring_sendrecv(c):
    return c.sendrecv(c.rank, dest=(c.rank + 1) % c.size, source=(c.rank - 1) % c.size)


def isend_irecv_wait(c):
    if c.rank == 0:
        return [c.isend(i, dest=i, tag=i).completed for i in range(1, c.size)]
    req = c.irecv(source=0, tag=c.rank)
    return (req.wait(), req.wait(), req.completed, req.test())


def send_to_self(c):
    c.send(("me", c.rank), dest=c.rank, tag=5)
    return c.recv(source=c.rank, tag=5)


def recv_with_status(c):
    if c.rank:
        c.send(c.rank * 11, dest=0, tag=c.rank)
        return None
    return [c.recv(source=src, tag=ANY_TAG, return_status=True) for src in range(1, c.size)]


def wildcard_recv(c):
    if c.rank:
        c.send(c.rank, dest=0, tag=7)
        return None
    return sorted(c.recv(ANY_SOURCE, 7) for _ in range(c.size - 1))


def probe_after_delivery(c):
    # Messages from one source arrive in order: once "y" is here, so is "x".
    if c.rank == 0:
        c.send("x", dest=1, tag=3)
        c.send("y", dest=1, tag=9)
    if c.rank != 1:
        return c.iprobe()
    return (c.recv(tag=9), c.iprobe(source=0, tag=4), c.iprobe(source=0, tag=3),
            c.recv(tag=3), c.iprobe())


def gatherv_of_memoryviews(c):
    buf = bytearray([c.rank] * 3)
    out = c.gatherv([memoryview(buf), memoryview(buf)[1:]], root=1)
    buf[:] = b"\xff" * 3  # the deposit was a snapshot
    return out if out is None else [(type(a).__name__, a, b) for a, b in out]


def scatterv_of_bytearrays(c):
    rows = [[bytearray([i]), b"k"] for i in range(c.size)] if c.rank == 2 else None
    mine = c.scatterv(rows, root=2)
    return (type(mine[0]).__name__, bytes(mine[0]), mine[1])


def bcast_array_arrives_as_array(c):
    got = c.bcast(np.arange(4) if c.rank == 0 else None)
    return (type(got).__name__, got.tolist())


def split_by_parity_reversed(c):
    sub = c.split(color=c.rank % 2, key=-c.rank)
    return (sub.rank, sub.size, sub.allgather(c.rank), sub.bcast(c.rank, root=sub.size - 1))


def split_bool_and_numpy_colors(c):
    a = c.split(color=c.rank < 2, key=np.int32(-c.rank))
    b = a.split(color=np.int64(7), key=True)
    return (a.rank, a.size, b.rank, b.size)


def split_none_is_comm_null(c):
    sub = c.split(color=None if c.rank == 1 else 4, key=c.rank)
    return "null" if sub is COMM_NULL else sub.allreduce(1)


def dup_isolates_traffic(c):
    d = c.dup()
    if c.rank == 0:
        d.send("dup", dest=1)
        c.send("parent", dest=1)
        return (d.rank, d.size)
    if c.rank == 1:
        return (c.recv(source=0), d.recv(source=0))
    return None


def subworld_then_collective(c):
    sub = c.subworld(2)
    return "outside" if sub is COMM_NULL else (sub.rank, sub.size, sub.allgather(c.rank))


def exec_once_returns_its_value(c):
    v = c.exec_once(lambda: c.rank * 2)
    c.barrier()
    return v


def _digest(buf) -> str:
    return hashlib.sha256(buf).hexdigest()[:16]


def large_payloads(c):
    # MiB-sized deposits and results: a 4 MiB bcast from a non-zero root,
    # 1 MiB gatherv fragments and 128 KiB alltoall cells.
    big = c.bcast(np.arange(1 << 19, dtype=np.int64) if c.rank == 3 else None, root=3)
    frags = c.gatherv([bytes([c.rank]) * (1 << 20)], root=0)
    col = c.alltoall([bytes([c.rank, dst]) * (1 << 16) for dst in range(c.size)])
    return (
        big.nbytes,
        _digest(big),
        None if frags is None else [_digest(f) for (f,) in frags],
        [_digest(cell) for cell in col],
    )


RESULT_PROGRAMS = [
    (every_collective, 4),
    (every_collective, 1),
    (reduce_at_nonzero_root, 3),
    (allreduce_max, 5),
    (reduce_noncommutative_op, 4),
    (ring_sendrecv, 5),
    (ring_sendrecv, 1),
    (isend_irecv_wait, 3),
    (send_to_self, 3),
    (recv_with_status, 4),
    (wildcard_recv, 4),
    (probe_after_delivery, 3),
    (gatherv_of_memoryviews, 3),
    (scatterv_of_bytearrays, 3),
    (bcast_array_arrives_as_array, 2),
    (split_by_parity_reversed, 5),
    (split_bool_and_numpy_colors, 4),
    (split_none_is_comm_null, 3),
    (dup_isolates_traffic, 3),
    (subworld_then_collective, 3),
    (exec_once_returns_its_value, 3),
    (large_payloads, 8),
]

# --------------------------------------------------------------------------
# (i) Programs that must be rejected — the same way everywhere.


def split_str_key(c):
    c.split(0, key="a")


def split_float_color(c):
    c.split(1.5)


def recv_negative_tag(c):
    c.recv(tag=-5)


def irecv_negative_tag(c):
    c.irecv(source=0, tag=-5)


def iprobe_negative_tag(c):
    c.iprobe(tag=-2)


def iprobe_source_out_of_range(c):
    c.iprobe(source=99)


def irecv_source_out_of_range(c):
    c.irecv(source=99)


def recv_source_out_of_range(c):
    c.recv(source=c.size)


def send_negative_tag(c):
    c.send(1, dest=0, tag=-1)


def send_dest_out_of_range(c):
    c.send(1, dest=c.size)


def bcast_bad_root(c):
    c.bcast(1, root=7)


def gatherv_bad_root(c):
    c.gatherv([b"x"], root=-1)


def scatter_short_input(c):
    c.scatter([1] if c.rank == 0 else None)


def scatterv_missing_input(c):
    c.scatterv(None, root=1)


def alltoall_short_input(c):
    c.alltoall([0])


def subworld_of_zero(c):
    c.subworld(0)


def barrier_vs_bcast(c):
    return c.barrier() if c.rank == 0 else c.bcast(None)


REJECTED_PROGRAMS = [
    (split_str_key, 4, "CommunicatorError", "split failed: TypeError"),
    (split_float_color, 4, "CommunicatorError", "split failed: TypeError"),
    (recv_negative_tag, 2, "CommunicatorError", "tags must be non-negative"),
    (irecv_negative_tag, 2, "CommunicatorError", "tags must be non-negative"),
    (iprobe_negative_tag, 2, "CommunicatorError", "tags must be non-negative"),
    (iprobe_source_out_of_range, 2, "CommunicatorError", "source 99 out of range"),
    (irecv_source_out_of_range, 2, "CommunicatorError", "source 99 out of range"),
    (recv_source_out_of_range, 2, "CommunicatorError", "source 2 out of range"),
    (send_negative_tag, 2, "CommunicatorError", "tags must be non-negative"),
    (send_dest_out_of_range, 2, "CommunicatorError", "dest 2 out of range"),
    (bcast_bad_root, 2, "CommunicatorError", "root 7 out of range"),
    (gatherv_bad_root, 2, "CommunicatorError", "root -1 out of range"),
    (scatter_short_input, 3, "CommunicatorError", "exactly one value per rank"),
    (scatterv_missing_input, 3, "CommunicatorError", "one fragment sequence per rank"),
    (alltoall_short_input, 3, "CommunicatorError", "exactly one value per rank"),
    (subworld_of_zero, 3, "CommunicatorError", "subworld size 0 out of range"),
    (barrier_vs_bcast, 2, "CollectiveMismatchError", "['barrier', 'bcast']"),
]


def _ids(table):
    return [f"{row[0].__name__}-{row[1]}" for row in table]


@pytest.mark.parametrize("program,nprocs", RESULT_PROGRAMS, ids=_ids(RESULT_PROGRAMS))
def test_same_result_on_every_engine(program, nprocs):
    expected = run_spmd(nprocs, program, engine="threads", timeout=30)
    for engine in ENGINES[1:]:
        assert run_spmd(nprocs, program, engine=engine, timeout=30) == expected, engine


def _primary_failure(engine, program, nprocs):
    """Type name and message of the lowest failing rank's exception."""
    with pytest.raises(SpmdWorkerError) as info:
        # The timeout only bounds a regression: a rejection is immediate.
        run_spmd(nprocs, program, engine=engine, timeout=10)
    exc = info.value.failures[min(info.value.failures)]
    return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "program,nprocs,kind,message", REJECTED_PROGRAMS, ids=_ids(REJECTED_PROGRAMS)
)
def test_same_rejection_on_every_engine(program, nprocs, kind, message):
    expected = _primary_failure("threads", program, nprocs)
    assert expected[0] == kind and message in expected[1], expected
    for engine in ENGINES[1:]:
        assert _primary_failure(engine, program, nprocs) == expected, engine


# --------------------------------------------------------------------------
# (ii) Structure: the surface is defined once.

PUBLIC_METHODS = (
    "barrier", "bcast", "gather", "allgather", "gatherv", "scatterv", "scatter",
    "alltoall", "reduce", "allreduce", "send", "recv", "sendrecv", "isend",
    "irecv", "iprobe", "split", "dup", "subworld", "exec_once", "abort",
)
TRANSPORTS = (ThreadComm, BulkComm, ProcComm)


def _package_classes():
    modules = (repro.simmpi.comm, repro.simmpi.bulk, repro.simmpi.proc)
    return {
        obj for mod in modules for obj in vars(mod).values()
        if inspect.isclass(obj) and obj.__module__ == mod.__name__
    }


def test_public_surface_is_defined_by_comm_alone():
    """Each of the 21 methods and ``rank``/``size`` is in ``vars()`` of
    exactly one communicator class — ``Comm`` — so signature parity
    between the engines holds by construction."""
    comms = {cls for cls in _package_classes() if issubclass(cls, Comm)}
    assert comms == {Comm, *TRANSPORTS}
    assert len(PUBLIC_METHODS) == 21
    for name in (*PUBLIC_METHODS, "rank", "size"):
        assert [cls for cls in comms if name in vars(cls)] == [Comm], name
        for cls in TRANSPORTS:
            assert getattr(cls, name) is getattr(Comm, name)
    assert not [n for n in vars(Comm) if not n.startswith("_") and n not in
                (*PUBLIC_METHODS, "rank", "size")]
    for cls in TRANSPORTS:
        assert not [n for n in vars(cls) if not n.startswith("_")], cls


def test_proc_engine_has_one_transport():
    """World and subgroup collectives share the mailbox hub: no shared
    memory, no process barrier, no slot size, one exchange method."""
    source = inspect.getsource(repro.simmpi.proc)
    assert "shared_memory" not in source and "Barrier(" not in source
    assert "slot_bytes" not in inspect.signature(repro.simmpi.proc.run_spmd_proc).parameters
    exchanges = [n for n in vars(ProcComm) if n.startswith("_exchange")]
    assert exchanges == ["_exchange"]


def test_request_is_one_class():
    requests = [cls for cls in _package_classes() if cls.__name__.endswith("Request")]
    assert requests == [Request]


def test_base_adds_no_instance_dict_to_bulk_comm():
    assert Comm.__slots__ == ()
    assert BulkComm.__dictoffset__ == 0
    assert len(BulkComm.__slots__) == 4
