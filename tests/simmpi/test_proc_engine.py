"""Process engine conformance: same programs, same results, real cores.

The matrix from ``test_bulk_engine`` runs unchanged under
``engine="proc"`` against the thread engine's results, plus the
process-specific contracts: exec_once runs once per rank *in the rank's
own process*, payloads cross by value, CountingBackend telemetry merges
at join, SimBackend refuses to cross, and multifiles written under any
engine are byte-identical.
"""

import hashlib
import os
import pickle

import numpy as np
import pytest
from test_bulk_engine import PROGRAMS

from repro.backends.instrument import CountingBackend
from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend
from repro.errors import (
    CollectiveMismatchError,
    CommunicatorError,
    SimMPIError,
    SpmdWorkerError,
)
from repro.simmpi import run_spmd
from repro.sion import paropen

# --------------------------------------------------------------------------
# The shared conformance matrix, and proc-specific collective programs.


@pytest.mark.parametrize("name,program,nprocs", PROGRAMS, ids=[p[0] for p in PROGRAMS])
def test_engine_conformance(name, program, nprocs):
    expected = run_spmd(nprocs, program)  # thread engine = reference
    got = run_spmd(nprocs, program, engine="proc")
    assert got == expected


def _gatherv_scatterv(c):
    frags = [bytes([c.rank])] * (c.rank + 1)
    g = c.gatherv(frags, root=1)
    sv = c.scatterv(
        [[(i, j) for j in range(i + 1)] for i in range(c.size)]
        if c.rank == 0
        else None
    )
    return (g, sv)


def _subworld_reads(c):
    sub = c.subworld(2)
    if sub is None:
        return "outside"
    return (sub.rank, sub.size, sub.allreduce(c.rank))


def _nested_split(c):
    # Split, then split the subgroup again: subgroup collectives route
    # over the control channel and must not collide across contexts.
    sub = c.split(color=c.rank % 2, key=c.rank)
    inner = sub.split(color=0, key=-sub.rank)
    return (sub.allgather(c.rank), inner.allgather(sub.rank))


EXTRA_PROGRAMS = [
    ("gatherv-scatterv", _gatherv_scatterv, 4),
    ("subworld", _subworld_reads, 5),
    ("nested-split", _nested_split, 4),
]


@pytest.mark.parametrize(
    "name,program,nprocs", EXTRA_PROGRAMS, ids=[p[0] for p in EXTRA_PROGRAMS]
)
def test_extra_conformance(name, program, nprocs):
    expected = run_spmd(nprocs, program)
    assert run_spmd(nprocs, program, engine="proc") == expected


def test_engine_names_are_exactly_engines():
    assert run_spmd(2, lambda c: c.allreduce(1), engine="threads") == [2, 2]
    for spelling in ("thread", "process", "processes"):
        with pytest.raises(SimMPIError, match="unknown SPMD engine"):
            run_spmd(2, lambda c: c.allreduce(1), engine=spelling)


def test_large_payload_bcast_matches_threads():
    def fn(c):
        data = np.arange(200_000, dtype=np.int64) + c.rank  # ~1.6 MB
        got = c.bcast(data if c.rank == 1 else None, root=1)
        return int(got.sum())

    expected = run_spmd(3, fn)
    assert run_spmd(3, fn, engine="proc") == expected


def test_payloads_cross_by_value():
    # A mutable payload mutated after the bcast must arrive as deposited.
    def fn(c):
        buf = bytearray(b"orig") if c.rank == 0 else None
        got = c.bcast(buf, root=0)
        if c.rank == 0:
            buf[:] = b"xxxx"
            return None
        return (bytes(got), type(got).__name__)

    assert run_spmd(2, fn, engine="proc")[1] == (b"orig", "bytearray")


@pytest.mark.parametrize("sub", [False, True], ids=["world", "subgroup"])
def test_hub_mutating_its_result_reaches_no_other_rank(sub):
    # The hub (local rank 0) gets its result while its reply to the other
    # ranks is still queued; an in-place update must not travel with it.
    def fn(c):
        comm = c.dup() if sub else c
        got = comm.bcast(np.zeros(1 << 18) if comm.rank == 1 else None, root=1)
        if comm.rank == 0:
            got += 1
        comm.barrier()
        return float(got.sum())

    assert run_spmd(4, fn, engine="proc", timeout=30.0) == [1 << 18, 0.0, 0.0, 0.0]


def _gatherv_posted_bytes(c):
    """Gather 1 MiB per rank at root 0; return the pickled bytes this
    rank handed to its mailbox runtime's ``post`` and what root 0 got."""
    rt = c._group.rt
    post, posted = rt.post, [0]

    def counting(dest, message):
        posted[0] += len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
        post(dest, message)

    rt.post = counting
    try:
        rows = c.gatherv([bytes([c.rank]) * (1 << 20)], root=0)
    finally:
        rt.post = post
    got = None if rows is None else [(len(f), f[:1]) for (f,) in rows]
    return posted[0], got


def test_hub_reply_carries_only_what_each_rank_reads():
    # A non-root gatherv rank reads nothing, so the hub posts it no slot:
    # what crosses the mailboxes is the three deposits, not four copies
    # of the whole slot list on top.
    out = run_spmd(4, _gatherv_posted_bytes, engine="proc", timeout=60.0)
    assert out[0][1] == [(1 << 20, bytes([r])) for r in range(4)]
    assert [got for _, got in out[1:]] == [None] * 3
    assert sum(n for n, _ in out) <= 3 * (1 << 20) + 64 * 1024


def _posted_bytes(c, exchange):
    """``(pickled bytes this rank handed to its mailbox runtime's post,
    what exchange(c) returned)``."""
    rt = c._group.rt
    post, posted = rt.post, [0]

    def counting(dest, message):
        posted[0] += len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
        post(dest, message)

    rt.post = counting
    try:
        got = exchange(c)
    finally:
        rt.post = post
    return posted[0], got


def _scatterv_1mib(c):
    rows = [[bytes([r]) * (1 << 20)] for r in range(c.size)] if c.rank == 0 else None
    (piece,) = c.scatterv(rows, root=0)
    return len(piece), piece[:1]


def _alltoall_256kib(c):
    cells = c.alltoall([bytes([c.rank, d]) * (1 << 17) for d in range(c.size)])
    return [(len(v), v[:2]) for v in cells]


def test_hub_reply_of_a_scatterv_is_the_members_row():
    # A scatterv member reads slots[root][me]: the hub posts it that row
    # alone, not the root's whole row list.
    out = run_spmd(4, _posted_bytes, _scatterv_1mib, engine="proc", timeout=60.0)
    assert [got for _, got in out] == [(1 << 20, bytes([r])) for r in range(4)]
    assert sum(n for n, _ in out) <= 3 * (1 << 20) + 64 * 1024


def test_hub_reply_of_an_alltoall_is_the_members_column():
    # An alltoall member reads its column: the hub posts it that column,
    # not the whole 4 x 4 matrix.  What crosses is the three deposits of
    # four cells and three columns of four.
    out = run_spmd(4, _posted_bytes, _alltoall_256kib, engine="proc", timeout=60.0)
    cell = 1 << 18
    assert [got for _, got in out] == [
        [(cell, bytes([src, dst])) for src in range(4)] for dst in range(4)
    ]
    assert sum(n for n, _ in out) <= 6 * (1 << 20) + 64 * 1024


# --------------------------------------------------------------------------
# Failure semantics.


def test_rank_failure_reported_and_fallout_filtered():
    def fn(c):
        if c.rank == 1:
            raise ValueError("boom")
        return c.allreduce(1)

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, fn, engine="proc")
    assert set(exc_info.value.failures) == {1}
    assert isinstance(exc_info.value.failures[1], ValueError)


def test_collective_mismatch_detected():
    def fn(c):
        if c.rank == 0:
            return c.gather(1)
        return c.bcast(None)

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, fn, engine="proc")
    assert any(
        isinstance(e, CollectiveMismatchError)
        for e in exc_info.value.failures.values()
    )


def test_invalid_root_raises():
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, lambda c: c.bcast(1, root=7), engine="proc")
    assert any(
        isinstance(e, CommunicatorError) for e in exc_info.value.failures.values()
    )


def test_scatter_shape_error_aborts_world():
    def fn(c):
        return c.scatter([1] if c.rank == 0 else None)  # wrong length

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, fn, engine="proc")
    assert any(
        isinstance(e, CommunicatorError) for e in exc_info.value.failures.values()
    )


def test_recv_timeout_raises():
    # A wait that never ends is a collective one rank never joins.
    def fn(c):
        if c.rank == 0:
            c.barrier()  # rank 1 returns instead
        return "ok"

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, fn, engine="proc", timeout=2.0)
    assert any(
        "timed out" in str(e) for e in exc_info.value.failures.values()
    )


def test_rank_cap_enforced(monkeypatch):
    monkeypatch.setenv("REPRO_PROC_MAX_RANKS", "4")
    with pytest.raises(SimMPIError, match="capped at 4 ranks"):
        run_spmd(5, lambda c: None, engine="proc")


@pytest.mark.parametrize(
    "var,value", [("REPRO_PROC_MAX_RANKS", "abc"), ("REPRO_PROC_START", "bogus")]
)
def test_bad_environment_variable_is_a_typed_error(monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    with pytest.raises(SimMPIError, match=f"{var} must be .*'{value}'"):
        run_spmd(2, lambda c: None, engine="proc")


def test_dead_rank_detected():
    def fn(c):
        if c.rank == 1:
            os._exit(17)  # dies without reporting or aborting
        c.barrier()

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, fn, engine="proc", timeout=30.0)
    assert any(
        "died without reporting" in str(e)
        for e in exc_info.value.failures.values()
    )


# --------------------------------------------------------------------------
# exec_once and process-isolation semantics.

_GLOBAL_EFFECTS = {"n": 0}


def test_exec_once_runs_exactly_once_per_rank(tmp_path):
    # Observable through the file system: each rank appends one byte via
    # exec_once; exactly one byte per rank file proves single execution.
    def fn(c):
        def effect():
            with open(tmp_path / f"rank{c.rank}.log", "a") as f:
                f.write("x")
            return c.rank

        v = c.exec_once(effect)
        c.barrier()
        return v

    assert run_spmd(4, fn, engine="proc") == list(range(4))
    for r in range(4):
        assert (tmp_path / f"rank{r}.log").read_text() == "x"


def test_in_memory_effects_stay_in_the_child():
    def fn(c):
        _GLOBAL_EFFECTS["n"] += 1
        return _GLOBAL_EFFECTS["n"]

    before = _GLOBAL_EFFECTS["n"]
    assert run_spmd(3, fn, engine="proc") == [before + 1] * 3
    assert _GLOBAL_EFFECTS["n"] == before  # parent state untouched


# --------------------------------------------------------------------------
# Backend handles across the process boundary.


def test_simbackend_refuses_to_cross():
    # Under fork the object would silently COW-copy instead; the pickle
    # guard is what keeps spawn (and any payload use) loudly safe.
    with pytest.raises(TypeError, match="in-process-only"):
        pickle.dumps(SimBackend())


def test_open_handle_travels_to_ranks(tmp_path):
    # The fd-passing story end to end: the parent opens one file, every
    # rank process writes its own region through the pickled handle.
    path = str(tmp_path / "shared.bin")
    handle = LocalBackend().open(path, "w+")

    def fn(c, h):
        h.pwrite(c.rank * 8, bytes([c.rank]) * 8)
        c.barrier()
        return True

    assert run_spmd(4, fn, handle, engine="proc") == [True] * 4
    assert handle.pread(0, 32) == b"".join(bytes([r]) * 8 for r in range(4))
    handle.close()


# --------------------------------------------------------------------------
# CountingBackend telemetry aggregates across processes.


def _counted_multifile(comm, backend, base):
    payload = bytes([comm.rank]) * (200 + comm.rank)
    f = paropen(
        os.path.join(base, "counted.sion"),
        "w",
        comm,
        chunksize=128,
        fsblksize=512,
        backend=backend,
    )
    f.fwrite(payload)
    f.parclose()
    return True


def test_counting_backend_merges_across_processes(tmp_path):
    (tmp_path / "t").mkdir()
    (tmp_path / "p").mkdir()
    thread_cb = CountingBackend(LocalBackend(blocksize_override=512))
    run_spmd(3, _counted_multifile, thread_cb, str(tmp_path / "t"))
    proc_cb = CountingBackend(LocalBackend(blocksize_override=512))
    run_spmd(3, _counted_multifile, proc_cb, str(tmp_path / "p"), engine="proc")
    # Identical telemetry: per-child counters merged at join equal the
    # thread engine's shared-object counts, method by method.
    assert proc_cb.snapshot() == thread_cb.snapshot()
    assert proc_cb.snapshot()["bytes_written"] > 0


# --------------------------------------------------------------------------
# Byte-identical multifiles across all three engines.

_BYTES_PAYLOADS = {r: bytes([65 + r]) * (300 + 17 * r) for r in range(4)}


def _write_multifile(comm, base):
    backend = LocalBackend(blocksize_override=512)
    f = paropen(
        os.path.join(base, "out.sion"),
        "w",
        comm,
        chunksize=128,
        fsblksize=512,
        nfiles=2,
        backend=backend,
    )
    f.fwrite(_BYTES_PAYLOADS[comm.rank])
    f.parclose()
    return True


def _read_multifile(comm, base):
    backend = LocalBackend(blocksize_override=512)
    f = paropen(os.path.join(base, "out.sion"), "r", comm, backend=backend)
    data = f.read_all()
    f.parclose()
    return data


def _hash_tree(base):
    out = {}
    for name in sorted(os.listdir(base)):
        with open(os.path.join(base, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def test_multifile_bytes_identical_across_engines(tmp_path):
    trees = {}
    for engine in ("threads", "bulk", "proc"):
        base = tmp_path / engine
        base.mkdir()
        run_spmd(4, _write_multifile, str(base), engine=engine)
        trees[engine] = _hash_tree(base)
    assert trees["proc"] == trees["threads"] == trees["bulk"]
    assert len(trees["proc"]) == 2  # nfiles=2 physical files

    # And the proc-written tree reads back under every engine.
    expected = [_BYTES_PAYLOADS[r] for r in range(4)]
    for engine in ("threads", "bulk", "proc"):
        assert run_spmd(4, _read_multifile, str(tmp_path / "proc"), engine=engine) == (
            expected
        )


# --------------------------------------------------------------------------
# Spawn start method: everything must pickle, nothing may inherit.

def _spawn_program(comm, base):
    v = comm.allreduce(comm.rank + 1)
    with open(os.path.join(base, f"r{comm.rank}.txt"), "w") as f:
        f.write(str(v))
    return v


def test_spawn_start_method_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PROC_START", "spawn")
    n = 3
    assert run_spmd(n, _spawn_program, str(tmp_path), engine="proc") == [6] * n
    for r in range(n):
        assert (tmp_path / f"r{r}.txt").read_text() == "6"
