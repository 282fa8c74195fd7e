"""Bulk engine conformance: same programs, same results as the thread engine.

The conformance matrix runs deterministic SPMD programs under both
engines and requires identical rank-ordered results.  Programs follow the
bulk-engine contract (deterministic, idempotent side effects), which every
program in this repo's SION layer also follows.
"""

import re
import threading

import pytest

from repro.errors import (
    CollectiveMismatchError,
    CommunicatorError,
    SimMPIError,
    SpmdWorkerError,
)
from repro.simmpi import run_spmd

# --------------------------------------------------------------------------
# Conformance matrix: (name, program) pairs executed under both engines.


def _collectives_mix(c):
    v = c.bcast(("cfg", c.size) if c.rank == 0 else None)
    g = c.gather(c.rank * 3)
    s = c.scatter([10 * i for i in range(c.size)] if c.rank == 0 else None)
    r = c.allreduce(c.rank)
    a = list(c.allgather(c.rank**2))
    c.barrier()
    red = c.reduce(1)
    return (v, g, s, r, a, red)


def _split_subgroups(c):
    sub = c.split(color=c.rank % 2, key=-c.rank)
    return (sub.rank, sub.size, sub.allgather(c.rank))


def _split_with_null(c):
    sub = c.split(color=None if c.rank == 0 else 1, key=c.rank)
    if sub is None:
        return "null"
    return sub.allreduce(1)


def _dup_then_reduce(c):
    return c.split(0, c.rank).allreduce(c.rank)


def _alltoall_identity(c):
    row = [(c.rank, dst) for dst in range(c.size)]
    return c.alltoall(c.alltoall(row)) == row


def _single_rank(c):
    return c.allreduce(41) + 1


PROGRAMS = [
    ("collectives-mix", _collectives_mix, 5),
    ("split-subgroups", _split_subgroups, 6),
    ("split-with-null", _split_with_null, 4),
    ("dup-then-reduce", _dup_then_reduce, 4),
    ("alltoall-identity", _alltoall_identity, 4),
    ("single-rank", _single_rank, 1),
]


@pytest.mark.parametrize("name,program,nprocs", PROGRAMS, ids=[p[0] for p in PROGRAMS])
def test_engine_conformance(name, program, nprocs):
    expected = run_spmd(nprocs, program)  # thread engine = reference
    got = run_spmd(nprocs, program, engine="bulk")
    assert got == expected


@pytest.mark.parametrize("nworkers", [1, 3])
def test_worker_pool_sizes_agree(nworkers):
    out = run_spmd(6, _collectives_mix, engine="bulk", nworkers=nworkers)
    assert out == run_spmd(6, _collectives_mix)


# --------------------------------------------------------------------------
# Failure semantics.


def test_unknown_engine_rejected():
    with pytest.raises(SimMPIError, match="unknown SPMD engine"):
        run_spmd(2, lambda c: None, engine="fibers")


def test_rank_failure_reported_and_fallout_filtered():
    def fn(c):
        if c.rank == 1:
            raise ValueError("boom")
        return c.allreduce(1)

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, fn, engine="bulk")
    assert set(exc_info.value.failures) == {1}
    assert isinstance(exc_info.value.failures[1], ValueError)


def test_collective_mismatch_detected():
    def fn(c):
        if c.rank == 0:
            return c.gather(1)
        return c.bcast(None)

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, fn, engine="bulk")
    assert any(
        isinstance(e, CollectiveMismatchError)
        for e in exc_info.value.failures.values()
    )


def test_invalid_root_raises():
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, lambda c: c.bcast(1, root=7), engine="bulk")
    assert any(
        isinstance(e, CommunicatorError) for e in exc_info.value.failures.values()
    )


def test_deadlock_detected_without_timeout():
    # Rank 0 waits in a barrier rank 1 never joins: the worklist drains and
    # the engine reports the deadlock instead of hanging until a timeout.
    def fn(c):
        if c.rank == 0:
            c.barrier()
        return "ok"

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, fn, engine="bulk", timeout=None)
    assert any("deadlock" in str(e) for e in exc_info.value.failures.values())


def test_scatter_shape_error_aborts_world():
    def fn(c):
        return c.scatter([1] if c.rank == 0 else None)  # wrong length

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, fn, engine="bulk")
    assert any(
        isinstance(e, CommunicatorError) for e in exc_info.value.failures.values()
    )


# --------------------------------------------------------------------------
# Replay semantics.


def test_exec_once_runs_exactly_once_per_rank():
    counts: dict[int, int] = {}
    lock = threading.Lock()

    def fn(c):
        def effect():
            with lock:
                counts[c.rank] = counts.get(c.rank, 0) + 1
            return c.rank

        v = c.exec_once(effect)
        c.barrier()  # forces at least one replay for most ranks
        c.barrier()
        return v

    assert run_spmd(5, fn, engine="bulk") == list(range(5))
    assert counts == {r: 1 for r in range(5)}


def test_exec_once_rejects_communication_inside():
    def fn(c):
        return c.exec_once(lambda: c.allreduce(1))

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, fn, engine="bulk")
    assert any(
        "must not perform communication" in str(e)
        for e in exc_info.value.failures.values()
    )


def test_nondeterministic_program_detected():
    # The op sequence depends on hidden mutable state, so a replay calls
    # a different collective than the log recorded.
    phase: dict[int, int] = {}
    lock = threading.Lock()

    def fn(c):
        with lock:
            phase[c.rank] = phase.get(c.rank, 0) + 1
            attempt = phase[c.rank]
        if attempt == 1:
            c.bcast(1 if c.rank == 0 else None)  # completes and is logged
            c.barrier()  # parks everyone but the last arriver
        else:
            c.allreduce(1)  # replay diverges from the logged bcast
        return "done"

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, fn, engine="bulk")
    assert any(
        "non-deterministic" in str(e) for e in exc_info.value.failures.values()
    )


def _diverging_program(late=None):
    """``barrier, bcast, barrier, barrier`` on a rank's first two
    executions.  From its third on, the body calls ``late(c)`` where the
    bcast was logged and records what that call returned — or, with no
    ``late``, returns right after the first barrier."""
    executions: dict[int, int] = {}
    returned: dict[int, object] = {}
    lock = threading.Lock()

    def fn(c):
        with lock:
            executions[c.rank] = executions.get(c.rank, 0) + 1
            n = executions[c.rank]
        c.barrier()
        if n >= 3:
            if late is None:
                return "early"
            got = late(c)
            with lock:
                returned[c.rank] = got
        else:
            c.bcast("root value" if c.rank == 0 else None)
        c.barrier()
        c.barrier()
        return "done"

    return fn, returned


def _bulk_failures(fn, nprocs=16):
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(nprocs, fn, engine="bulk")
    return [str(e) for e in exc_info.value.failures.values()]


def test_replay_divergence_names_the_logged_and_the_called_op():
    fn, _ = _diverging_program(lambda c: c.allreduce(1))
    messages = _bulk_failures(fn)
    assert any(
        "non-deterministic" in m and "'bcast'" in m and "'allreduce'" in m
        for m in messages
    ), messages


def test_replay_divergence_hands_the_body_no_logged_value():
    # The diverging call fails before it returns: no rank's body ever
    # sees the value the bcast logged at that position.
    fn, returned = _diverging_program(lambda c: c.allreduce(1))
    _bulk_failures(fn)
    assert returned == {}


def test_replay_returning_before_its_frontier_is_detected():
    fn, _ = _diverging_program()
    messages = _bulk_failures(fn)
    assert any(
        re.search(r"returned after \d+ ops but its log holds \d+", m)
        for m in messages
    ), messages


def test_a_communicator_used_outside_its_rank_body_is_refused():
    # Ranks run one at a time and the engine keeps only the running one's
    # execution: rank 1 calling rank 0's communicator fails, naming it.
    stash = []

    def body(comm):
        if comm.rank == 0:
            stash.append(comm)
            return None
        return stash[0].barrier()

    with pytest.raises(SpmdWorkerError) as info:
        run_spmd(2, body, engine="bulk")
    failure = info.value.failures[1]
    assert isinstance(failure, SimMPIError)
    assert "rank 0's communicator used outside its own rank body" in str(failure)


def test_bulk_engine_has_one_replay_check():
    from repro.simmpi import bulk

    for name in ("_FP_SEED", "_FP_MULT", "_FP_MASK", "_fp_step"):
        assert not hasattr(bulk, name), name
    assert set(bulk._Program.__slots__) == {"ops", "cols", "branches"}
    assert set(bulk._Exec.__slots__) == {"prog", "cursor", "nlogged", "suspending"}
    assert not hasattr(bulk.BulkComm, "_verify_frontier")
    assert not hasattr(bulk._BulkEngine, "maybe_mark_uniform")
    stats: dict = {}
    run_spmd(4, lambda c: c.allreduce(1), engine="bulk", engine_stats=stats)
    assert "uniform_programs" not in stats
    assert stats["programs"] == 1 and stats["executions"] >= 4


def test_a_wave_keeps_no_per_rank_waiter_state():
    """The ranks a completed wave wakes are read off its deposit bitmap
    and its world's frontier counts: a wave's only per-rank buffers are
    its deposit slots and that bitmap."""
    from repro.simmpi import bulk

    assert set(bulk._Wave.__slots__) == {
        "opid", "slots", "deposited", "filled", "consumed",
        "wake_root", "shared", "has_shared", "t0",
    }
    wave = bulk._Wave(0, 1000, None)
    per_rank = {
        name for name in bulk._Wave.__slots__
        if hasattr(getattr(wave, name), "__len__") and len(getattr(wave, name)) == 1000
    }
    assert per_rank == {"slots", "deposited"}


def test_allgather_result_is_shared_between_ranks():
    # Documented bulk-engine divergence: one shared result object.
    out = run_spmd(3, lambda c: c.allgather(c.rank), engine="bulk")
    assert out[0] == [0, 1, 2]
    assert out[0] is out[1] is out[2]


def test_bulk_timeout_fires():
    def fn(c):
        if c.rank == 0:
            c.barrier()  # never satisfied
        else:
            import time

            time.sleep(0.2)  # keep a worker busy so it's not a deadlock
            # ... and return without joining the barrier
        return "x"

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, fn, engine="bulk", timeout=0.5)
    messages = [str(e) for e in exc_info.value.failures.values()]
    assert any("timed out" in m or "deadlock" in m for m in messages)


def test_cleanup_communication_during_suspend_is_deferred():
    # A with-block whose __exit__ communicates (like SionParallelFile's
    # parclose) must not corrupt the op log when a suspension unwinds
    # through it: the cleanup ops re-suspend and run for real on replay.
    class Group:
        def __init__(self, c):
            self.c = c
            self.closes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.closes += 1
            self.c.barrier()  # communicates during cleanup

    def fn(c):
        g = Group(c)
        with g:
            c.barrier()  # parks everyone but the last arriver
            inner = c.allreduce(1)
        return (inner, g.closes)

    out = run_spmd(4, fn, engine="bulk")
    # Every rank's *final* (completing) run enters and exits the block
    # exactly once, so the observed close count is 1.
    assert out == [(4, 1)] * 4


def test_split_with_unorderable_keys_raises_everywhere_promptly():
    def fn(c):
        return c.split(color=0, key="a" if c.rank else 1)

    for engine in ("threads", "bulk"):
        with pytest.raises(SpmdWorkerError) as exc_info:
            run_spmd(3, fn, engine=engine, timeout=5)
        # threads: every rank raises its own CommunicatorError wrapping the
        # shared sort failure; bulk: the computing rank raises the
        # TypeError directly and the rest are abort fallout.
        assert any(
            isinstance(e, TypeError)
            or (isinstance(e, CommunicatorError) and "split failed" in str(e))
            for e in exc_info.value.failures.values()
        ), engine


# --------------------------------------------------------------------------
# The SION collective open/close cycle under the bulk engine.


def test_paropen_roundtrip_under_bulk_engine():
    from repro.backends.simfs_backend import SimBackend
    from repro.fs.simfs import SimFS
    from repro.sion import paropen

    backend = SimBackend(SimFS(blocksize_override=4096))
    payloads = {r: bytes([r]) * (100 + r) for r in range(6)}

    def write_task(comm):
        f = paropen(
            "/bulk.sion", "w", comm, chunksize=64, fsblksize=512,
            nfiles=2, backend=backend,
        )
        f.fwrite(payloads[comm.rank])  # spans chunks
        f.parclose()
        # Every rank of a file shares ONE mb1 object, so the master's
        # metablock2_offset patch is visible everywhere — also under
        # replay, where the master must adopt the broadcast instance.
        # A non-master's write close returns before its master patches,
        # so the offsets are read once run_spmd has sealed the set.
        return (f.filenum, f.mb1)

    results = run_spmd(6, write_task, engine="bulk")
    assert [f for f, _ in results] == [0, 0, 0, 1, 1, 1]
    masters = {f: mb1 for f, mb1 in results}
    for f, mb1 in results:
        assert mb1 is masters[f] and mb1.metablock2_offset > 0

    def read_task(comm):
        f = paropen("/bulk.sion", "r", comm, backend=backend)
        data = f.read_all()
        f.parclose()
        return data

    # Written by bulk, read by bulk AND by the thread engine: the bytes
    # on disk are engine-independent.
    assert run_spmd(6, read_task, engine="bulk") == [payloads[r] for r in range(6)]
    assert run_spmd(6, read_task) == [payloads[r] for r in range(6)]


def test_thread_written_file_reads_under_bulk():
    from repro.backends.simfs_backend import SimBackend
    from repro.fs.simfs import SimFS
    from repro.sion import paropen

    backend = SimBackend(SimFS(blocksize_override=4096))

    def write_task(comm):
        f = paropen("/x.sion", "w", comm, chunksize=256, backend=backend)
        f.fwrite(b"t%d" % comm.rank * 30)
        f.parclose()

    run_spmd(4, write_task)  # thread engine writes

    def read_task(comm):
        f = paropen("/x.sion", "r", comm, backend=backend)
        data = f.read_all()
        f.parclose()
        return data

    assert run_spmd(4, read_task, engine="bulk") == [
        b"t%d" % r * 30 for r in range(4)
    ]
