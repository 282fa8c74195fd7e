"""One ``Comm``, three transports: one table of programs, three engines.

``repro.simmpi.comm.Comm`` defines the communicator surface once; the
thread, bulk and process engines supply only a transport.  Part (i) runs
every program of the table below on all three and requires equal results
— or, for an illegal call, the same exception type and message on the
primary failing rank.  Part (ii) pins the structure that makes (i) hold
by construction: no engine class defines any public name, the process
engine moves every collective over one transport, and every exchange is
a collective (no point-to-point call, mailbox or message match, no
request object, no probe).

The programs are module-level functions so that the whole table also runs
under the ``spawn`` start method (CI: ``REPRO_PROC_START=spawn``).
"""

import ast
import hashlib
import inspect
import operator
import pathlib

import numpy as np
import pytest

import repro.baselines.singlefile
import repro.simmpi
import repro.simmpi.bulk
import repro.simmpi.comm
import repro.simmpi.proc
from repro.errors import SimMPIError, SpmdWorkerError
from repro.simmpi import (
    COMM_NULL,
    BulkComm,
    Comm,
    ProcComm,
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


def gatherv_of_memoryviews(c):
    buf = bytearray([c.rank] * 3)
    out = c.gatherv([memoryview(buf), memoryview(buf)[1:]], root=1)
    buf[:] = b"\xff" * 3  # the deposit was a snapshot
    return out if out is None else [(type(a).__name__, a, b) for a, b in out]


def views_of_one_bytes(c):
    # Slices of one immutable ``bytes``: kept as views in-process, copied
    # at the process engine's pickle boundary; the content is the same.
    blob = bytes(range(64))
    mine = memoryview(blob)[4 * c.rank : 4 * c.rank + 3]
    gathered = c.gatherv([mine, mine[1:]], root=0)
    got = c.bcast(mine if c.rank == 1 else None, root=1)
    (sent,) = c.scatterv([[mine[i:]] for i in range(c.size)] if c.rank == 0 else None)
    return (
        gathered if gathered is None else [tuple(map(bytes, row)) for row in gathered],
        bytes(got),
        bytes(sent),
    )


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
    d = c.split(0, c.rank)
    dup = d.bcast("dup" if c.rank == 0 else None)
    parent = c.bcast("parent" if c.rank == 0 else None)
    return (d.rank, d.size) if c.rank == 0 else (parent, dup)


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
    (gatherv_of_memoryviews, 3),
    (views_of_one_bytes, 3),
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


def two_primary_failures(c):
    if c.rank == 0:
        raise SimMPIError("user aborted the run")  # its own error, not fallout
    if c.rank == 1:
        raise ValueError("bad input")
    c.barrier()


@pytest.mark.parametrize("engine", ENGINES)
def test_abort_fallout_is_told_apart_by_type_not_text(engine):
    with pytest.raises(SpmdWorkerError) as info:
        run_spmd(3, two_primary_failures, engine=engine, timeout=10)
    failures = info.value.failures
    # The bulk engine runs one rank at a time and stops at the first
    # failure, so rank 1 never raises there: it is fallout like rank 2.
    assert set(failures) == ({0} if engine == "bulk" else {0, 1}), failures
    assert type(failures[0]) is SimMPIError and "aborted" in str(failures[0])
    if engine != "bulk":
        assert isinstance(failures[1], ValueError)


# --------------------------------------------------------------------------
# (ii) Structure: the surface is defined once.

COLLECTIVES = (
    "barrier", "bcast", "gather", "allgather", "gatherv", "scatterv", "scatter",
    "alltoall", "reduce", "allreduce",
)
PUBLIC_METHODS = (*COLLECTIVES, "split", "subworld", "exec_once", "abort")
TRANSPORTS = (ThreadComm, BulkComm, ProcComm)


def _package_classes():
    modules = (repro.simmpi.comm, repro.simmpi.bulk, repro.simmpi.proc)
    return {
        obj for mod in modules for obj in vars(mod).values()
        if inspect.isclass(obj) and obj.__module__ == mod.__name__
    }


def test_public_surface_is_defined_by_comm_alone():
    """Each of the 14 methods and ``rank``/``size`` is in ``vars()`` of
    exactly one communicator class — ``Comm`` — so signature parity
    between the engines holds by construction."""
    comms = {cls for cls in _package_classes() if issubclass(cls, Comm)}
    assert comms == {Comm, *TRANSPORTS}
    assert len(PUBLIC_METHODS) == 14
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


def test_no_request_class():
    """Every exchange is a blocking collective: no request object to poll."""
    names = {cls.__name__ for cls in _package_classes()} | set(dir(repro.simmpi))
    assert not [n for n in names if n.endswith("Request")]


def test_no_transport_probes():
    for cls in (Comm, *TRANSPORTS):
        assert not hasattr(cls, "_probe"), cls


#: What point-to-point messaging needed: the transport hooks, the
#: mailboxes, the bulk engine's receive parking and the wildcards.
P2P_NAMES = (
    "_post", "_match", "_Mailbox", "mailbox", "park_recv", "wake",
    "ANY_SOURCE", "ANY_TAG",
)


def test_point_to_point_is_gone():
    """Every exchange is a collective: no module, class or export of
    ``repro.simmpi`` keeps a name point-to-point messaging needed."""
    modules = (repro.simmpi, repro.simmpi.comm, repro.simmpi.bulk, repro.simmpi.proc)
    owners = [*modules, *_package_classes()]
    for name in P2P_NAMES:
        assert not [o for o in owners if name in vars(o)], name


@pytest.mark.parametrize("cls", TRANSPORTS, ids=lambda cls: cls.__name__)
def test_transport_has_no_message_hooks(cls):
    """No transport posts or matches a message, not even by inheritance:
    ``_post`` and ``_match`` went with send/recv."""
    assert not {"_post", "_match"} & set(dir(cls)), cls


def test_single_file_baseline_calls_only_collectives():
    """The single-file checkpoint moves its slabs by ``gatherv`` /
    ``scatterv`` rounds: every ``Comm`` method it calls is a collective,
    or ``exec_once``, which exchanges nothing and runs each of the root's
    backend steps once."""
    tree = ast.parse(inspect.getsource(repro.baselines.singlefile))
    called = {
        node.func.attr for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "comm"
    }
    assert {"gatherv", "scatterv"} <= called <= {*COLLECTIVES, "exec_once"}, called


def test_no_nonblocking_op_names_in_simmpi():
    package = pathlib.Path(repro.simmpi.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        assert "tryrecv" not in source and "iprobe" not in source, path.name


def test_base_adds_no_instance_dict_to_bulk_comm():
    assert Comm.__slots__ == ()
    assert BulkComm.__dictoffset__ == 0
    assert len(BulkComm.__slots__) == 4
