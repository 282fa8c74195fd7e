"""Randomized engine conformance: wave-vectorized bulk vs. threads.

Hypothesis draws small rank *programs* — sequences of collectives,
subworld phases and ``exec_once`` effects — and runs each under both
engines.  The contract:

* identical rank-ordered results on success (the thread engine is the
  reference semantics);
* ``exec_once`` effects fire exactly as often as on the thread engine
  (once per rank per call site), no matter how often the bulk engine
  replays a body;
* scripted rank failures surface the same ``SpmdWorkerError`` — same
  failing ranks, same exception types and messages — with abort fallout
  filtered identically;
* a rank failing at its call *k* (``Journal(inner, fail_at=(victim, k))``
  fired through the SION layer, engines x nfiles x collectsize x victim
  x k) either fails identically or leaves byte-identical multifiles.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.journal import Journal
from repro.backends.simfs_backend import SimBackend
from repro.bench.scale import multifile_fingerprint
from repro.errors import SpmdWorkerError
from repro.fs.simfs import SimFS
from repro.simmpi import run_spmd
from repro.sion import paropen
from tests.conftest import TEST_BLKSIZE

# --------------------------------------------------------------------------
# Program specs and their interpreter.  Every op result is a pure function
# of (rank, world, spec), so both engines must produce identical outputs;
# the only side effect (exec_once) is recorded in a shared log.

_flat_op = st.one_of(
    st.tuples(st.just("bcast"), st.integers(0, 7), st.integers(-50, 50)),
    st.tuples(st.just("gather"), st.integers(0, 7)),
    st.tuples(st.just("allgather"), st.integers(-50, 50)),
    st.tuples(st.just("reduce"), st.integers(0, 7)),
    st.tuples(st.just("allreduce")),
    st.tuples(st.just("scatter"), st.integers(0, 7)),
    st.tuples(st.just("gatherv"), st.integers(0, 7), st.integers(0, 2)),
    st.tuples(st.just("alltoall")),
    st.tuples(st.just("barrier")),
    st.tuples(st.just("exec_once"), st.integers(-50, 50)),
)
_sub_op = st.tuples(
    st.just("sub"),
    st.integers(1, 3),  # number of colors
    st.booleans(),  # last rank opts out with color=None
    st.lists(_flat_op, min_size=1, max_size=3),
)
_program = st.lists(st.one_of(_flat_op, _sub_op), min_size=1, max_size=6)


def _apply(c, op, grank, once_log, lock):
    kind = op[0]
    if kind == "bcast":
        root, seed = op[1] % c.size, op[2]
        return c.bcast((seed, c.size) if c.rank == root else None, root=root)
    if kind == "gather":
        return c.gather(c.rank * 3 + 1, root=op[1] % c.size)
    if kind == "allgather":
        return list(c.allgather((c.rank, op[1])))
    if kind == "reduce":
        return c.reduce(c.rank + 1, root=op[1] % c.size)
    if kind == "allreduce":
        return c.allreduce(c.rank * 2 + 1)
    if kind == "scatter":
        root = op[1] % c.size
        values = [i * 5 + 1 for i in range(c.size)] if c.rank == root else None
        return c.scatter(values, root=root)
    if kind == "gatherv":
        root, w = op[1] % c.size, op[2]
        frags = [(c.rank, i) for i in range((c.rank + w) % 3 + 1)]
        return c.gatherv(frags, root=root)
    if kind == "alltoall":
        return c.alltoall([(c.rank, dst) for dst in range(c.size)])
    if kind == "barrier":
        c.barrier()
        return "bar"
    if kind == "exec_once":
        seed = op[1]

        def effect():
            with lock:
                once_log.append(grank)
            return (grank, seed)

        return c.exec_once(effect)
    if kind == "sub":
        _, ncolors, use_null, subops = op
        color = c.rank % ncolors
        if use_null and c.size > 1 and c.rank == c.size - 1:
            color = None
        sub = c.split(color=color, key=c.rank)
        if sub is None:
            return "null"
        return [_apply(sub, o, grank, once_log, lock) for o in subops]
    raise AssertionError(f"unknown op {op!r}")


def _run(nprocs, spec, engine):
    once_log: list[int] = []
    lock = threading.Lock()

    def body(c):
        return [_apply(c, op, c.rank, once_log, lock) for op in spec]

    out = run_spmd(nprocs, body, engine=engine)
    return out, sorted(once_log)


@settings(max_examples=30, deadline=None)
@given(nprocs=st.integers(1, 8), spec=_program)
def test_random_programs_match_thread_engine(nprocs, spec):
    ref, ref_once = _run(nprocs, spec, "threads")
    got, got_once = _run(nprocs, spec, "bulk")
    assert got == ref
    # The thread engine runs each body exactly once, so its effect log
    # defines "once per rank per call site"; bulk replays must not add
    # or drop a single firing.
    assert got_once == ref_once


def _failure_surface(nprocs, spec, victims, seed, engine):
    lock = threading.Lock()
    once_log: list[int] = []

    def body(c):
        out = [_apply(c, op, c.rank, once_log, lock) for op in spec]
        if c.rank in victims:
            raise ValueError(f"scripted failure {seed} on rank {c.rank}")
        c.barrier()  # survivors park so abort fallout paths fire
        return out

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(nprocs, body, engine=engine)
    return {
        rank: (type(exc).__name__, str(exc))
        for rank, exc in exc_info.value.failures.items()
    }


@settings(max_examples=25, deadline=None)
@given(
    nprocs=st.integers(2, 8),
    spec=_program,
    victim=st.integers(0, 7),
    seed=st.integers(0, 999),
)
def test_random_failure_surfaces_match(nprocs, spec, victim, seed):
    # A single scripted victim must surface identically: the program runs
    # to completion on every rank before the victim raises, so abort
    # fallout filtering leaves exactly one primary failure either way.
    victim %= nprocs
    bulk = _failure_surface(nprocs, spec, {victim}, seed, "bulk")
    threads = _failure_surface(nprocs, spec, {victim}, seed, "threads")
    assert bulk == threads
    assert set(bulk) == {victim}


@settings(max_examples=15, deadline=None)
@given(
    nprocs=st.integers(2, 8),
    spec=_program,
    victims=st.sets(st.integers(0, 7), min_size=2, max_size=3),
    seed=st.integers(0, 999),
)
def test_multi_victim_failures_are_scripted_subset(nprocs, spec, victims, seed):
    # With several victims, *which* of them survives the abort-fallout
    # filter is scheduling-dependent on both engines — the invariant each
    # must uphold is that every reported primary failure is one of the
    # scripted ValueErrors, never an engine-internal error.
    victims = {v % nprocs for v in victims}
    for engine in ("bulk", "threads"):
        surface = _failure_surface(nprocs, spec, victims, seed, engine)
        assert surface, f"{engine}: empty failure surface"
        for rank, (typ, msg) in surface.items():
            assert rank in victims, f"{engine}: non-victim rank {rank} primary"
            assert (typ, msg) == (
                "ValueError",
                f"scripted failure {seed} on rank {rank}",
            )


# --------------------------------------------------------------------------
# The in-flight failure grid, randomized: a rank failing at its call k must
# surface identically under both engines — or, when the rank makes fewer
# than k + 1 calls, both engines must leave byte-identical multifiles.


@settings(max_examples=15, deadline=None)
@given(
    nprocs=st.integers(2, 6),
    victim=st.integers(0, 5),
    call=st.integers(0, 12),
    collectsize=st.sampled_from([None, 2]),
    nfiles=st.sampled_from([1, 2]),
)
def test_fault_grid_surfaces_match(nprocs, victim, call, collectsize, nfiles):
    victim %= nprocs
    if collectsize:
        victim -= victim % collectsize  # only collectors do physical I/O

    def outcome(engine):
        fs = SimFS(blocksize_override=TEST_BLKSIZE)
        inner = SimBackend(fs)
        be = Journal(inner, (victim, call))
        kwargs = {"collectsize": collectsize} if collectsize else {}

        def task(comm):
            f = paropen(
                "/scratch/h.sion",
                "w",
                comm,
                chunksize=256,
                nfiles=nfiles,
                backend=be.for_rank(comm.rank),
                **kwargs,
            )
            f.fwrite(bytes((comm.rank * 13 + i) % 256 for i in range(300)))
            f.parclose()

        try:
            run_spmd(nprocs, task, engine=engine)
        except SpmdWorkerError as exc:
            return {
                rank: type(err).__name__ for rank, err in exc.failures.items()
            }
        return multifile_fingerprint(inner, "/scratch/h.sion", nfiles=nfiles)

    assert outcome("bulk") == outcome("threads")
