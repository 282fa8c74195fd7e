"""Bulk SPMD engine: a million ranks without the threads — or the logs.

The default :func:`~repro.simmpi.runner.run_spmd` engine gives every rank
its own OS thread, which is faithful but tops out around a few thousand
ranks.  This module executes the same ``fn(comm, ...)`` programs
*cooperatively* on a bounded worker pool, and — since the wave-vectorized
rewrite — keeps the whole control plane in **flat per-wave arrays** so
each rank costs O(1) python objects of engine state:

* **Shared op log.**  Rank op sequences are interned opcode ids appended
  to :class:`_Program` rows *shared* by every rank that runs the same
  sequence (the SPMD common case: one row for the whole world, plus one
  for the root's extra ``exec_once`` steps).  A rank's log is just two
  integers in flat arrays — its program row and its op count — not a
  per-rank list of tuples.
* **Value columns.**  Logged op *results* live in per-position
  :class:`_Col` columns that start as a single shared value (barrier
  ``None``, the bcast/allgather/allreduce shared object, a split's
  plan) and spill to an exceptions dict, then a dense object ndarray,
  only when ranks actually disagree (per-rank ``exec_once`` results such
  as file handles).
* **Wave-flat communicator algebra.**  ``split`` / ``dup`` / ``subworld``
  log one shared :class:`_SplitPlan` per split wave — the child worlds
  plus two int arrays, ``child_of[lrank]`` and ``rank_in_child[lrank]`` —
  so a split's column stays *uniform*.  No per-rank communicator object
  is ever stored: the four-slot :class:`BulkComm` is rebuilt from the
  plan on every replay, exactly as the root communicator is rebuilt by
  every execution.
* **Preallocated wave buffers.**  Each in-flight collective is one
  :class:`_Wave`: an object ndarray of deposit slots, a bool deposit
  bitmap, and a preallocated int32 waiter array.  Waking the world when a
  wave completes is a handful of vectorized index operations over flag
  arrays, not a python loop over a waiter set.
* **Uniform-program fast path.**  When the first wave of a world
  completes with every member on the same program row, replay
  verification switches from per-op opcode compares to a running
  sequence fingerprint checked once when the rank reaches its frontier.

Plain Python functions cannot be suspended mid-call without a dedicated
stack, so cooperative scheduling is built on **memoized replay**:

* a rank body runs until it hits a communication op whose result is not
  yet available (e.g. a barrier some ranks have not reached);
* the op's deposit is recorded in the wave buffer, the rank is parked,
  and its worker moves on to another rank;
* when the op completes, parked ranks re-run **from the top** — every
  communication op they already completed returns its column value
  instantly and with no side effects, so the body deterministically
  reaches the frontier and continues.

The number of re-runs per rank is bounded by the number of collectives it
parks on (roughly the program's collective depth), not by world size.

**Program contract** (checked where cheap, documented here in full):

1. Rank bodies must be *deterministic* given their communication results.
   The engine verifies on replay that the op sequence matches — per op on
   the general path, by sequence fingerprint on the uniform fast path —
   and raises ``SimMPIError`` otherwise.
2. Non-communication side effects between ops may be re-executed and must
   be idempotent (positioned writes of the same bytes are; truncating
   creates and appends are not).  Guard non-idempotent effects with
   ``Comm.exec_once(fn)``, which executes exactly once and replays its
   result.  Cleanup code (``finally`` blocks, ``__exit__``) that runs
   while a suspension unwinds may *call* communication ops safely: they
   re-suspend without touching any state, and the cleanup re-runs for
   real on replay.
3. Busy-wait loops over ``iprobe()``/``Request.test()`` never yield the
   worker; use blocking ``recv``/``wait`` instead.
4. ``allgather``/``allreduce`` results are computed once and **shared**
   between ranks (the thread engine hands each rank a private copy);
   treat them as read-only.
5. Because segments re-execute, side effects your own rank body performs
   between ops (counters, logging, ad-hoc file appends) count replays
   too unless you guard them with ``exec_once``.  The SION layer guards
   *all* of its backend interactions — collective mode's waves and
   direct mode's handles (routed through
   :class:`repro.sion.openspec.ReplayGuardedFile`) alike — so SimFS
   accounting and ``CountingBackend`` telemetry of multifile I/O are
   deterministic and engine-independent, which is what the
   ``collective`` and ``repartition`` benchmark suites pin.

Collective *readiness* is relaxed exactly as real MPI allows: a bcast
returns at the root immediately, a gather blocks only the root, a barrier
blocks everyone.  Programs that relied on the thread engine's accidental
barrier-per-collective behavior should add explicit barriers.

Pass ``stats={}`` to :func:`run_spmd_bulk` (or ``engine_stats={}``
through ``run_spmd``) to receive per-wave timing and replay counters —
the raw material of the ``scale`` suite's phase breakdown.

**Lifetime contract.**  Everything a run creates dies with ``run_spmd``:
program rows and their columns, in-flight waves, mailboxes and sub-worlds
are reachable only through the engine, and :meth:`_BulkEngine.run` lets
go of all of them in a ``finally`` — on success, rank failure, deadlock
and timeout alike — and cuts every world's reference back to the engine.
This is not left to the garbage collector because it cannot do it:
``dtype=object`` ndarrays (dense columns, wave slots) are invisible to
CPython's cycle collector, so a cycle engine → program row → column →
logged value → world → engine through one of them would otherwise be
immortal, and with it every file handle the run logged.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import deque
from itertools import compress
from operator import index
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.errors import (
    CollectiveMismatchError,
    CommunicatorError,
    SimMPIError,
)
from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, COMM_NULL, _copy_payload, _fold


def default_nworkers() -> int:
    """Bounded pool size: enough to overlap I/O, few enough to stay cheap.

    Thin re-export: the actual default lives in
    :func:`repro.simmpi.runner.default_bulk_nworkers`, the single source
    of truth the ``run_spmd`` docstring refers to.
    """
    from repro.simmpi.runner import default_bulk_nworkers

    return default_bulk_nworkers()


class _Suspend(BaseException):
    """Internal control flow: unwind a rank body back to the scheduler.

    Derives from ``BaseException`` so user-level ``except Exception``
    handlers cannot swallow a suspension.
    """


# --------------------------------------------------------------------------
# Opcode interning and program fingerprints.

_OP_NAMES: list[str] = []
_OP_IDS: dict[str, int] = {}


def _opid(name: str) -> int:
    opid = _OP_IDS.get(name)
    if opid is None:
        opid = _OP_IDS[name] = len(_OP_NAMES)
        _OP_NAMES.append(name)
    return opid


_OP_BARRIER = _opid("barrier")
_OP_BCAST = _opid("bcast")
_OP_GATHER = _opid("gather")
_OP_ALLGATHER = _opid("allgather")
_OP_GATHERV = _opid("gatherv")
_OP_SCATTERV = _opid("scatterv")
_OP_SCATTER = _opid("scatter")
_OP_ALLTOALL = _opid("alltoall")
_OP_REDUCE = _opid("reduce")
_OP_ALLREDUCE = _opid("allreduce")
_OP_SPLIT = _opid("split")
_OP_SEND = _opid("send")
_OP_RECV = _opid("recv")
_OP_IPROBE = _opid("iprobe")
_OP_TRYRECV = _opid("tryrecv")
_OP_EXEC_ONCE = _opid("exec_once")

#: FNV-1a-style running fingerprint of an op-id sequence, masked to stay
#: a machine int.  Used by the uniform-program fast path: replays
#: accumulate the fingerprint instead of checking each opcode, and the
#: result is compared against the program's prefix fingerprint once, when
#: the rank crosses from replay into fresh execution.
_FP_SEED = 0xCBF29CE484222325
_FP_MULT = 0x100000001B3
_FP_MASK = (1 << 64) - 1


def _fp_step(fp: int, opid: int) -> int:
    return ((fp ^ opid) * _FP_MULT) & _FP_MASK


#: Above this many distinct per-rank values a column abandons its
#: exceptions dict for a dense object ndarray (8 bytes/rank + values).
_COL_SPILL = 16


class _Col:
    """Value column of one program position: the logged results, by rank.

    Starts empty, becomes *uniform* on the first deposit (a single shared
    value — the common case for barriers, bcast/allgather shared objects
    and ``None`` results), collects disagreeing ranks in an exceptions
    dict, and spills to a dense object ndarray indexed by global rank
    once per-rank values are the rule (``exec_once`` handles).
    """

    __slots__ = ("mode", "value", "exc", "dense")

    def __init__(self) -> None:
        self.mode = 0  # 0 empty, 1 uniform(+exceptions), 2 dense
        self.value: Any = None
        self.exc: dict[int, Any] | None = None
        self.dense: Any = None

    def put(self, grank: int, value: Any, engine_size: int) -> None:
        """Record ``value`` for ``grank`` (caller holds the program lock)."""
        mode = self.mode
        if mode == 2:
            self.dense[grank] = value
            return
        if mode == 0:
            self.value = value
            self.mode = 1
            return
        if value is self.value:
            return
        exc = self.exc
        if exc is None:
            exc = self.exc = {}
        exc[grank] = value
        if len(exc) > _COL_SPILL and engine_size > 2 * _COL_SPILL:
            dense = np.empty(engine_size, dtype=object)
            dense.fill(self.value)
            for g, v in exc.items():
                dense[g] = v
            # Publish dense before flipping the mode: lock-free readers
            # observe either the old uniform view or the complete dense
            # one (the exceptions dict is kept so a stale mode-1 read
            # stays correct).
            self.dense = dense
            self.mode = 2

    def get(self, grank: int) -> Any:
        """Logged value for ``grank`` (lock-free; replay hot path)."""
        mode = self.mode
        if mode == 1:
            exc = self.exc
            if exc is not None:
                return exc.get(grank, self.value)
            return self.value
        return self.dense[grank]


class _Program:
    """One shared op sequence: interned opcode ids plus value columns.

    Ranks running identical sequences share a row; a rank whose next op
    diverges branches to a child row that shares the common-prefix
    columns by reference.  ``fps[k]`` is the running fingerprint of
    ``ops[:k]``; ``uniform`` is set when a whole world was observed on
    this row at its first wave, enabling fingerprint-verified replay.
    """

    __slots__ = ("ops", "cols", "fps", "branches", "uniform")

    def __init__(
        self,
        ops: list[int] | None = None,
        cols: list[_Col] | None = None,
        fps: list[int] | None = None,
    ) -> None:
        self.ops: list[int] = ops if ops is not None else []
        self.cols: list[_Col] = cols if cols is not None else []
        self.fps: list[int] = fps if fps is not None else [_FP_SEED]
        self.branches: dict[tuple[int, int], _Program] = {}
        self.uniform = False


class _Exec:
    """Transient state of one execution (one run of one rank body).

    Created per :meth:`_BulkEngine._execute` call and dropped when the
    body returns, parks, or fails — engine state that must *persist*
    across executions lives in the engine's flat arrays instead.
    """

    __slots__ = ("prog", "cursor", "nlogged", "fast", "fp", "verified", "suspending")

    def __init__(self, prog: _Program, nlogged: int) -> None:
        self.prog = prog
        self.cursor = 0
        self.nlogged = nlogged
        #: Snapshot of ``prog.uniform`` at execution start: the replay
        #: verification mode must not change mid-run (the fingerprint is
        #: only meaningful if accumulated from op 0).
        self.fast = prog.uniform
        self.fp = _FP_SEED
        self.verified = False
        #: True while a ``_Suspend`` is unwinding this body.  Any
        #: communication attempted by cleanup code (``finally`` blocks,
        #: context-manager ``__exit__`` like ``SionParallelFile.parclose``)
        #: during the unwind must itself suspend without touching the
        #: program or wave state — the cleanup re-runs for real on replay.
        self.suspending = False


class _Wave:
    """One in-flight collective: preallocated world buffers plus state."""

    __slots__ = (
        "opid", "slots", "deposited", "filled", "consumed",
        "waiters", "nwaiters", "wake_root", "shared", "has_shared", "t0",
    )

    def __init__(self, opid: int, size: int) -> None:
        self.opid = opid
        self.slots = np.empty(size, dtype=object)
        self.deposited = np.zeros(size, dtype=bool)
        self.filled = 0
        self.consumed = 0
        #: Parked global ranks, packed front-first; reset on every wake.
        self.waiters = np.empty(size, dtype=np.int32)
        self.nwaiters = 0
        self.wake_root: int | None = None  # deposit by this lrank readies waiters
        self.shared: Any = None  # once-computed shared result (allgather, ...)
        self.has_shared = False
        self.t0 = time.monotonic()


class _Mailbox:
    """Point-to-point message store of one (world, local rank)."""

    __slots__ = ("messages", "waiters")

    def __init__(self) -> None:
        self.messages: deque[tuple[int, int, Any]] = deque()
        self.waiters: set[int] = set()

    def match(self, source: int, tag: int) -> tuple[int, int, Any] | None:
        for i, (src, tg, _) in enumerate(self.messages):
            if source not in (ANY_SOURCE, src):
                continue
            if tag not in (ANY_TAG, tg):
                continue
            msg = self.messages[i]
            del self.messages[i]
            return msg
        return None

    def probe(self, source: int, tag: int) -> bool:
        return any(
            source in (ANY_SOURCE, src) and tag in (ANY_TAG, tg)
            for src, tg, _ in self.messages
        )


class _World:
    """Shared state of one communicator group under the bulk engine.

    ``granks`` maps local rank to engine (global) rank; for the root
    world it is a ``range`` and for a sub-world an int64 ``array``, so a
    million-rank world costs no per-rank objects here either.
    ``consumed[lr]`` counts collective ops local rank ``lr`` has
    completed — its frontier collective is op number ``consumed[lr]`` of
    this world.  Every world registers with its engine, which severs it
    when the run ends.
    """

    __slots__ = ("engine", "size", "granks", "consumed", "waves", "_mailboxes")

    def __init__(self, engine: "_BulkEngine", granks: Sequence[int]) -> None:
        self.engine = engine
        self.size = len(granks)
        self.granks = granks
        self.consumed = array("l", bytes(8 * self.size))
        self.waves: dict[int, _Wave] = {}
        self._mailboxes: dict[int, _Mailbox] = {}
        engine.worlds.append(self)

    def mailbox(self, lrank: int) -> _Mailbox:
        box = self._mailboxes.get(lrank)
        if box is None:
            box = self._mailboxes[lrank] = _Mailbox()
        return box


class BulkComm:
    """One rank's communicator handle under the bulk engine.

    Implements the same surface as :class:`repro.simmpi.comm.Comm`; see the
    module docstring for the few intentional semantic differences.
    """

    __slots__ = ("_world", "_engine", "_lrank", "_grank")

    def __init__(self, world: _World, lrank: int) -> None:
        self._world = world
        self._engine = world.engine
        self._lrank = lrank
        self._grank = world.granks[lrank]

    # -- introspection ----------------------------------------------------

    @property
    def rank(self) -> int:
        """This task's rank within the communicator (0-based)."""
        return self._lrank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self._world.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BulkComm rank={self._lrank} size={self._world.size}>"

    # -- replay machinery -------------------------------------------------

    def _replay(self, ex: _Exec, opid: int) -> Any:
        """Return the column value of the op at the cursor (hot path)."""
        prog, c = ex.prog, ex.cursor
        if ex.fast:
            # Uniform fast path: accumulate the sequence fingerprint;
            # verified once against the program prefix at the frontier.
            ex.fp = _fp_step(ex.fp, opid)
        elif prog.ops[c] != opid:
            raise SimMPIError(
                f"non-deterministic rank program: replay expected "
                f"{_OP_NAMES[prog.ops[c]]!r} but rank {self._grank} called "
                f"{_OP_NAMES[opid]!r}; bulk-engine programs must be "
                "deterministic"
            )
        ex.cursor = c + 1
        return prog.cols[c].get(self._grank)

    def _verify_frontier(self, ex: _Exec) -> None:
        """Fingerprint check when a fast-path replay reaches its frontier."""
        if ex.fast and not ex.verified:
            if ex.fp != ex.prog.fps[ex.cursor]:
                raise SimMPIError(
                    f"non-deterministic rank program: rank {self._grank}'s "
                    "replayed op sequence diverged from the logged program "
                    "(fingerprint mismatch); bulk-engine programs must be "
                    "deterministic"
                )
        ex.verified = True

    def _advance(self, ex: _Exec, opid: int, value: Any) -> Any:
        """Record a completed frontier op in the (shared) program row."""
        engine = self._engine
        g = self._grank
        with engine.proglock:
            self._verify_frontier(ex)
            prog, k = ex.prog, ex.cursor
            if k < len(prog.ops):
                if prog.ops[k] == opid:
                    prog.cols[k].put(g, value, engine.size)
                else:
                    # This rank diverges from the row it shared: branch to
                    # (or create) the child row for its op, sharing the
                    # common-prefix columns by reference.
                    child = prog.branches.get((k, opid))
                    if child is None:
                        fps = prog.fps[: k + 1]
                        fps.append(_fp_step(fps[-1], opid))
                        child = _Program(
                            prog.ops[:k] + [opid], prog.cols[:k] + [_Col()], fps
                        )
                        prog.branches[(k, opid)] = child
                    child.cols[k].put(g, value, engine.size)
                    engine.progs[g] = ex.prog = child
            else:
                col = _Col()
                col.put(g, value, engine.size)
                prog.ops.append(opid)
                prog.cols.append(col)
                prog.fps.append(_fp_step(prog.fps[-1], opid))
            engine.nops[g] = ex.nlogged = ex.cursor = k + 1
        return value

    def _op(self, opid: int, frontier: Callable[[], Any]) -> Any:
        """Replay a logged op or execute ``frontier`` exactly once."""
        engine = self._engine
        ex = engine.execs[self._grank]
        if ex.suspending:
            raise _Suspend()
        if ex.cursor < ex.nlogged:
            return self._replay(ex, opid)
        if engine.aborted:
            raise SimMPIError("communicator aborted (another rank failed)")
        return self._advance(ex, opid, frontier())

    def _collective(
        self,
        opid: int,
        deposit: Any,
        ready: Callable[[_Wave], bool],
        result: Callable[[_Wave], Any],
        wake_root: int | None = None,
        copy: bool = True,
    ) -> Any:
        engine = self._engine
        g = self._grank
        ex = engine.execs[g]
        if ex.suspending:
            raise _Suspend()
        if ex.cursor < ex.nlogged:
            # Replay fast path: no lock, no deposit copy.
            return self._replay(ex, opid)
        world, lr = self._world, self._lrank
        with engine.cond:
            if engine.aborted:
                raise SimMPIError("communicator aborted (another rank failed)")
            k = world.consumed[lr]
            wave = world.waves.get(k)
            if wave is None:
                wave = world.waves[k] = _Wave(opid, world.size)
                wave.wake_root = wake_root
            if wave.opid != opid:
                engine.abort()
                raise CollectiveMismatchError(
                    "ranks disagree on collective operation: "
                    f"{sorted((_OP_NAMES[wave.opid], _OP_NAMES[opid]))}"
                )
            if not wave.deposited[lr]:
                wave.deposited[lr] = True
                wave.slots[lr] = _copy_payload(deposit) if copy else deposit
                wave.filled += 1
                engine.last_progress = time.monotonic()
                if wave.filled == world.size or lr == wave.wake_root:
                    engine.wake_wave(wave)
            if not ready(wave):
                nw = wave.nwaiters
                wave.waiters[nw] = g
                wave.nwaiters = nw + 1
                engine.park_collective(g, opid, k, world.size)
                ex.suspending = True
                raise _Suspend()
            value = result(wave)
            world.consumed[lr] = k + 1
            wave.consumed += 1
            if wave.consumed == world.size:
                del world.waves[k]
                engine.note_wave_done(world, wave)
                if k == 0:
                    engine.maybe_mark_uniform(world)
        return self._advance(ex, opid, value)

    # -- collectives ------------------------------------------------------

    def barrier(self) -> None:
        """Block until every rank of the communicator has entered."""
        self._collective(_OP_BARRIER, None, _ready_all, _result_none)

    def bcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast ``value`` from ``root`` to every rank; returns it."""
        self._check_root(root)
        deposit = value if self._lrank == root else None
        return self._collective(
            _OP_BCAST,
            deposit,
            lambda wave: bool(wave.deposited[root]),
            lambda wave: wave.slots[root],
            wake_root=root,
        )

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank at ``root`` (``None`` elsewhere)."""
        self._check_root(root)
        if self._lrank == root:
            return self._collective(
                _OP_GATHER, value, _ready_all, _slots_list
            )
        return self._collective(_OP_GATHER, value, _ready_always, _result_none)

    def allgather(self, value: Any) -> list[Any]:
        """Gather one value per rank; every rank gets the (shared) list."""
        return self._collective(_OP_ALLGATHER, value, _ready_all, _shared_list)

    def gatherv(self, fragments: Sequence[Any], root: int = 0) -> list[tuple[Any, ...]] | None:
        """Gather a variable-length fragment sequence per rank at ``root``.

        Same contract as :meth:`repro.simmpi.comm.Comm.gatherv`: fragments
        are snapshotted per the payload contract at deposit, only the root
        blocks (MPI-relaxed readiness), and the result replays on body
        re-execution like every collective.
        """
        self._check_root(root)
        # Tuples travel by reference through _copy_payload, so snapshot
        # each fragment explicitly before depositing (copy=False below).
        deposit = tuple(_copy_payload(f) for f in fragments)
        if self._lrank == root:
            return self._collective(
                _OP_GATHERV, deposit, _ready_all, _slots_list, copy=False
            )
        return self._collective(
            _OP_GATHERV, deposit, _ready_always, _result_none, copy=False
        )

    def scatterv(
        self, values: Sequence[Sequence[Any]] | None, root: int = 0
    ) -> tuple[Any, ...]:
        """Scatter one variable-length fragment sequence to each rank.

        Mirror of :meth:`gatherv`; non-root ranks only wait for the
        root's deposit, as real MPI allows.
        """
        self._check_root(root)
        if self._lrank == root:
            if values is None or len(values) != self.size:
                self._engine.abort()
                raise CommunicatorError(
                    "scatterv requires exactly one fragment sequence per rank "
                    "at the root"
                )
            deposit = [tuple(_copy_payload(f) for f in seq) for seq in values]
            return self._collective(
                _OP_SCATTERV, deposit, _ready_always,
                lambda wave: wave.slots[root][root],
                wake_root=root, copy=False,
            )
        lr = self._lrank
        return self._collective(
            _OP_SCATTERV, None,
            lambda wave: bool(wave.deposited[root]),
            lambda wave: wave.slots[root][lr],
            wake_root=root,
        )

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter ``len == size`` values from ``root``; each rank gets one."""
        self._check_root(root)
        if self._lrank == root:
            if values is None or len(values) != self.size:
                self._engine.abort()
                raise CommunicatorError(
                    "scatter requires exactly one value per rank at the root"
                )
            deposit = [_copy_payload(v) for v in values]
            return self._collective(
                _OP_SCATTER, deposit, _ready_always,
                lambda wave: wave.slots[root][root],
                wake_root=root, copy=False,
            )
        lr = self._lrank
        return self._collective(
            _OP_SCATTER, None,
            lambda wave: bool(wave.deposited[root]),
            lambda wave: wave.slots[root][lr],
            wake_root=root,
        )

    def alltoall(self, values: Sequence[Any]) -> list[Any]:
        """Each rank provides one value per destination; returns its column."""
        if len(values) != self.size:
            self._engine.abort()
            raise CommunicatorError("alltoall requires exactly one value per rank")
        lr = self._lrank
        return self._collective(
            _OP_ALLTOALL,
            [_copy_payload(v) for v in values],
            _ready_all,
            lambda wave: [wave.slots[src][lr] for src in range(len(wave.slots))],
            copy=False,
        )

    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] | None = None,
        root: int = 0,
    ) -> Any | None:
        """Reduce one value per rank at ``root`` (default op: ``+``)."""
        self._check_root(root)
        if self._lrank == root:
            return self._collective(
                _OP_REDUCE, value, _ready_all,
                lambda wave: _fold(list(wave.slots), op),
            )
        return self._collective(_OP_REDUCE, value, _ready_always, _result_none)

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Reduce one value per rank; the (shared) result on every rank."""

        def shared_fold(wave: _Wave) -> Any:
            if not wave.has_shared:
                wave.shared = _fold(list(wave.slots), op)
                wave.has_shared = True
            return wave.shared

        return self._collective(_OP_ALLREDUCE, value, _ready_all, shared_fold)

    # -- point to point ---------------------------------------------------

    def send(self, value: Any, dest: int, tag: int = 0) -> None:
        """Send ``value`` to rank ``dest`` (asynchronous, buffered)."""
        if not 0 <= dest < self.size:
            raise CommunicatorError(f"dest {dest} out of range for size {self.size}")
        if tag < 0:
            raise CommunicatorError("tags must be non-negative")
        world, lr = self._world, self._lrank
        engine = self._engine

        def frontier() -> None:
            with engine.cond:
                box = world.mailbox(dest)
                box.messages.append((lr, tag, _copy_payload(value)))
                engine.wake(box.waiters)
            return None

        return self._op(_OP_SEND, frontier)

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, return_status: bool = False
    ) -> Any:
        """Receive a message; parks this rank until a matching one arrives.

        With ``return_status=True`` returns ``(value, source, tag)``.
        """
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise CommunicatorError(f"source {source} out of range")
        world, lr = self._world, self._lrank
        engine = self._engine

        def frontier() -> Any:
            with engine.cond:
                if engine.aborted:
                    raise SimMPIError("communicator aborted (another rank failed)")
                box = world.mailbox(lr)
                hit = box.match(source, tag)
                if hit is None:
                    box.waiters.add(self._grank)
                    engine.park_recv(self._grank, source, tag)
                    engine.execs[self._grank].suspending = True
                    raise _Suspend()
                return hit

        src, tg, payload = self._op(_OP_RECV, frontier)
        if return_status:
            return payload, src, tg
        return payload

    def sendrecv(
        self, value: Any, dest: int, source: int = ANY_SOURCE, tag: int = 0
    ) -> Any:
        """Combined send and receive (deadlock-free shift pattern)."""
        self.send(value, dest, tag)
        return self.recv(source, tag)

    def isend(self, value: Any, dest: int, tag: int = 0) -> "BulkRequest":
        """Non-blocking send.  Buffered, so it completes immediately."""
        self.send(value, dest, tag)
        req = BulkRequest(self, None, None)
        req._done = True
        return req

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> "BulkRequest":
        """Non-blocking receive; complete it with ``wait()`` or ``test()``."""
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise CommunicatorError(f"source {source} out of range")
        return BulkRequest(self, source, tag)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is already waiting (not consumed).

        The probe is an op: its outcome is logged and replayed.  Spinning
        on ``iprobe`` without an intervening blocking op never yields the
        worker — use ``recv`` to wait.
        """
        world, lr = self._world, self._lrank
        engine = self._engine

        def frontier() -> bool:
            with engine.cond:
                return world.mailbox(lr).probe(source, tag)

        return self._op(_OP_IPROBE, frontier)

    # -- communicator management ------------------------------------------

    def split(self, color: int | None, key: int = 0) -> "BulkComm | None":
        """Partition by ``color``; subgroup ranks ordered by ``(key, rank)``."""
        world, lr = self._world, self._lrank

        def shared_plan(wave: _Wave) -> _SplitPlan:
            if not wave.has_shared:
                wave.shared = _split_plan(world, wave.slots)
                wave.has_shared = True
            return wave.shared

        # Every member logs the same plan object, so the column stays
        # uniform; the communicator itself is rebuilt on each replay.
        plan = self._collective(_OP_SPLIT, (color, key), _ready_all, shared_plan)
        child = plan.child_of[lr]
        if child < 0:
            return COMM_NULL
        return BulkComm(plan.worlds[child], plan.rank_in_child[lr])

    def dup(self) -> "BulkComm":
        """Duplicate the communicator (fresh synchronization context)."""
        comm = self.split(color=0, key=self._lrank)
        assert comm is not None
        return comm

    def subworld(self, size: int) -> "BulkComm | None":
        """Communicator over ranks ``[0, size)``; ``COMM_NULL`` elsewhere.

        Same contract as :meth:`repro.simmpi.comm.Comm.subworld` — the
        sub-world sizing hook for partitioned readers.
        """
        if not 1 <= size <= self.size:
            raise CommunicatorError(
                f"subworld size {size} out of range for {self.size} ranks"
            )
        return self.split(color=0 if self._lrank < size else None, key=self._lrank)

    def exec_once(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` exactly once for this rank; replays return its result.

        The bulk-engine escape hatch for non-idempotent side effects: on
        replay the column value is returned and ``fn`` is not called.
        Whether a rank has executed its op is exactly ``nops[rank] >
        position`` — the shared program's op count doubles as the
        exec-once bitmap.  ``fn`` must not perform communication — a
        skipped replay would desynchronize the op log (checked).
        """
        engine = self._engine

        def frontier() -> Any:
            ex = engine.execs[self._grank]
            before = ex.cursor
            value = fn()
            if ex.cursor != before:
                raise SimMPIError(
                    "exec_once callable must not perform communication"
                )
            return value

        return self._op(_OP_EXEC_ONCE, frontier)

    def abort(self) -> None:
        """Abort the whole bulk world, failing every unfinished rank."""
        engine = self._engine
        with engine.cond:
            engine.abort()

    # -- internals ---------------------------------------------------------

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise CommunicatorError(f"root {root} out of range for size {self.size}")


def _ready_all(wave: _Wave) -> bool:
    return wave.filled == len(wave.slots)


def _ready_always(wave: _Wave) -> bool:
    return True


def _result_none(wave: _Wave) -> None:
    return None


def _slots_list(wave: _Wave) -> list[Any]:
    """Root's gather/gatherv result: the wave buffer as a plain list."""
    return list(wave.slots)


def _shared_list(wave: _Wave) -> list[Any]:
    """Shared allgather result (computed once, handed to every rank)."""
    if not wave.has_shared:
        wave.shared = list(wave.slots)
        wave.has_shared = True
    return wave.shared


class _SplitPlan(NamedTuple):
    """Outcome of one split wave, shared by every rank of the parent world.

    ``worlds`` is the child-world table; parent local rank ``lr`` became
    rank ``rank_in_child[lr]`` of ``worlds[child_of[lr]]``, or got
    ``COMM_NULL`` where ``child_of[lr]`` is -1 (``color=None``).
    """

    worlds: list[_World]
    child_of: array
    rank_in_child: array


def _int64s(values: np.ndarray) -> array:
    """An int64 ndarray as an ``array``: indexing it yields python ints."""
    return array("q", values.astype(np.int64, copy=False).tobytes())


def _split_plan(world: _World, slots: np.ndarray) -> _SplitPlan:
    """Group a completed split wave's ``(color, key)`` deposits.

    One stable sort on ``(color, key)`` over the members in old-rank
    order — so ties fall back to the old rank — replaces per-rank tuples
    and an n-entry dict; children are numbered by ascending color.
    """
    n = len(slots)
    colors, keys = zip(*slots)
    member = [c is not None for c in colors]
    old = np.flatnonzero(member)
    if len(old) < n:
        colors, keys = compress(colors, member), compress(keys, member)
    try:
        color = np.fromiter(map(index, colors), np.int64, len(old))
        key = np.fromiter(map(index, keys), np.int64, len(old))
    except (TypeError, OverflowError) as exc:
        raise CommunicatorError(f"split failed: {exc!r}") from exc
    order = np.lexsort((key, color))
    color, old = color[order], old[order]
    # ``color`` is sorted: each child is one run, ``starts`` its first slot.
    _, starts, child = np.unique(color, return_index=True, return_inverse=True)
    child_of = np.full(n, -1, dtype=np.int64)
    child_of[old] = child
    rank_in_child = np.zeros(n, dtype=np.int64)
    rank_in_child[old] = np.arange(len(old)) - starts[child]
    parent = world.granks
    granks = old if isinstance(parent, range) else np.frombuffer(parent, np.int64)[old]
    bounds = [*starts.tolist(), len(old)]
    worlds = [
        _World(world.engine, _int64s(granks[a:b]))
        for a, b in zip(bounds, bounds[1:])
    ]
    return _SplitPlan(worlds, _int64s(child_of), _int64s(rank_in_child))


class BulkRequest:
    """Handle for a pending non-blocking operation (bulk engine)."""

    def __init__(self, comm: BulkComm, source: int | None, tag: int | None) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._value: Any = None

    @property
    def completed(self) -> bool:
        """True once the operation has finished (after wait/test success)."""
        return self._done

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check: ``(done, value_or_None)``.

        Each call is an op whose outcome is logged; see ``iprobe`` for the
        busy-wait caveat.
        """
        if self._done:
            return True, self._value
        comm = self._comm
        world, lr = comm._world, comm._lrank
        engine = comm._engine
        source = self._source if self._source is not None else ANY_SOURCE
        tag = self._tag if self._tag is not None else ANY_TAG

        def frontier() -> tuple[bool, Any]:
            with engine.cond:
                hit = world.mailbox(lr).match(source, tag)
                if hit is None:
                    return False, None
                return True, hit[2]

        done, payload = comm._op(_OP_TRYRECV, frontier)
        if done:
            self._done = True
            self._value = payload
        return done, payload

    def wait(self) -> Any:
        """Park until completion; returns the received value (sends: None)."""
        if self._done:
            return self._value
        value = self._comm.recv(
            self._source if self._source is not None else ANY_SOURCE,
            self._tag if self._tag is not None else ANY_TAG,
        )
        self._value = value
        self._done = True
        return value


#: Waiter batches below this size wake with a plain loop; above it, the
#: numpy views over the flag arrays take over (one vectorized pass).
_WAKE_VECTOR_MIN = 64

#: Per-wave timing entries kept for engine stats before dropping.
_WAVE_LOG_CAP = 4096


class _BulkEngine:
    """Worklist scheduler executing logical ranks on a bounded pool.

    All persistent per-rank state is packed into flat arrays (program
    row refs, op counts, scheduler flags, parked-on descriptors); the
    only per-rank python objects are the transient :class:`_Exec` of the
    ranks currently on a worker and whatever the rank bodies themselves
    allocate.
    """

    def __init__(
        self,
        nprocs: int,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        timeout: float | None,
        nworkers: int | None,
        stats: dict | None = None,
    ) -> None:
        if nprocs < 1:
            raise CommunicatorError(f"communicator size must be >= 1, got {nprocs}")
        self.size = nprocs
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.timeout = timeout
        self.stats = stats
        #: Monotonic time of the last scheduler progress (op completion,
        #: wake, rank finishing).  The timeout is a *stall* bound — it
        #: fires only when nothing has advanced for ``timeout`` seconds,
        #: matching the thread engine's per-wait semantics rather than
        #: capping healthy long runs.
        self.last_progress = time.monotonic()
        self.nworkers = max(1, nworkers if nworkers is not None else default_nworkers())
        self.cond = threading.Condition()
        #: Guards program rows, columns and the ``progs``/``nops`` arrays.
        #: Leaf lock: may be taken while holding ``cond``, never the
        #: reverse.  Replay reads are lock-free (GIL-ordered stores).
        self.proglock = threading.Lock()

        # Flat per-rank state: one shared program row at the start, zero
        # logged ops, every rank runnable and parked on "start".
        root = _Program()
        self.progs: list[_Program] = [root] * nprocs
        self.nops = array("l", bytes(8 * nprocs))
        self.execs: list[_Exec | None] = [None] * nprocs

        # Scheduler flags as byte arrays with shared numpy views: the
        # scalar paths index the bytearrays, vectorized wake indexes the
        # views — same memory.
        self.done_b = bytearray(nprocs)
        self.queued_b = bytearray(b"\x01" * nprocs)
        self.running_b = bytearray(nprocs)
        self.rewake_b = bytearray(nprocs)
        self.done_v = np.frombuffer(self.done_b, dtype=np.bool_)
        self.queued_v = np.frombuffer(self.queued_b, dtype=np.bool_)
        self.running_v = np.frombuffer(self.running_b, dtype=np.bool_)
        self.rewake_v = np.frombuffer(self.rewake_b, dtype=np.bool_)

        # Parked-on descriptors, packed; formatted lazily by
        # ``_parked_desc`` only when a stuck world is reported.
        self.parked_kind = bytearray(nprocs)  # 0 start, 1 collective, 2 recv
        self.parked_a = array("l", bytes(8 * nprocs))  # opid / source
        self.parked_b = array("l", bytes(8 * nprocs))  # op index / tag
        self.parked_c = array("l", bytes(8 * nprocs))  # world size / unused

        #: Every world of the run, root first (worlds register themselves).
        self.worlds: list[_World] = []
        self.world = _World(self, range(nprocs))
        self.runnable: deque[int] = deque(range(nprocs))
        self.results: list[Any] = [None] * nprocs
        self.failures: dict[int, BaseException] = {}
        self.ndone = 0
        self.active = 0
        self.aborted = False
        self.finished = False
        self.timed_out = False

        # Stats counters (satellite telemetry, no hot-path cost beyond
        # the per-wave append).
        self.nexecs = 0
        self.nprograms = 1
        self.wave_log: list[tuple[int, str, float, float]] = []
        self.wave_log_dropped = 0

    # -- scheduler state transitions (call with ``self.cond`` held) --------

    def wake(self, waiters: set[int]) -> None:
        """Move parked ranks back onto the run queue (or defer: a rank
        whose previous execution is still unwinding re-queues when its
        worker releases it).  Set-based path for mailbox waiters."""
        if not waiters:
            return
        self.last_progress = time.monotonic()
        for grank in waiters:
            if self.done_b[grank] or self.queued_b[grank]:
                continue
            if self.running_b[grank]:
                self.rewake_b[grank] = 1
            else:
                self.queued_b[grank] = 1
                self.runnable.append(grank)
        waiters.clear()
        self.cond.notify_all()

    def wake_wave(self, wave: _Wave) -> None:
        """Wake a wave's parked ranks — vectorized over the flag views."""
        nw = wave.nwaiters
        if nw == 0:
            return
        wave.nwaiters = 0
        self.last_progress = time.monotonic()
        if nw < _WAKE_VECTOR_MIN:
            for i in range(nw):
                grank = int(wave.waiters[i])
                if self.done_b[grank] or self.queued_b[grank]:
                    continue
                if self.running_b[grank]:
                    self.rewake_b[grank] = 1
                else:
                    self.queued_b[grank] = 1
                    self.runnable.append(grank)
        else:
            w = wave.waiters[:nw]
            w = w[~(self.done_v[w] | self.queued_v[w])]
            running = self.running_v[w]
            self.rewake_v[w[running]] = True
            go = w[~running]
            self.queued_v[go] = True
            self.runnable.extend(go.tolist())
        self.cond.notify_all()

    def park_collective(self, grank: int, opid: int, k: int, wsize: int) -> None:
        self.parked_kind[grank] = 1
        self.parked_a[grank] = opid
        self.parked_b[grank] = k
        self.parked_c[grank] = wsize

    def park_recv(self, grank: int, source: int, tag: int) -> None:
        self.parked_kind[grank] = 2
        self.parked_a[grank] = source
        self.parked_b[grank] = tag

    def _parked_desc(self, grank: int) -> str:
        kind = self.parked_kind[grank]
        if kind == 1:
            return (
                f"{_OP_NAMES[self.parked_a[grank]]} (op {self.parked_b[grank]} "
                f"of a {self.parked_c[grank]}-rank world)"
            )
        if kind == 2:
            return f"recv(source={self.parked_a[grank]}, tag={self.parked_b[grank]})"
        return "start"

    def note_wave_done(self, world: _World, wave: _Wave) -> None:
        if len(self.wave_log) < _WAVE_LOG_CAP:
            self.wave_log.append(
                (world.size, _OP_NAMES[wave.opid], wave.t0, time.monotonic())
            )
        else:
            self.wave_log_dropped += 1

    def maybe_mark_uniform(self, world: _World) -> None:
        """Uniform-program detection at a world's first completed wave.

        If every member rank is on the same program row once wave 0 has
        been consumed by all of them, the row is flagged and subsequent
        replays of it verify by sequence fingerprint instead of per-op
        opcode compares.  Ranks that later diverge simply branch to
        unflagged child rows — the flag never needs revoking.
        """
        with self.proglock:
            progs = self.progs
            first = progs[world.granks[0]]
            for lr in range(1, world.size):
                if progs[world.granks[lr]] is not first:
                    return
            first.uniform = True

    def abort(self) -> None:
        # The condition wraps an RLock, so this is safe both from worker
        # context (lock already held) and from plain rank code.
        with self.cond:
            self.aborted = True
            self.cond.notify_all()

    def _finish_rank(self, grank: int, result: Any) -> None:
        self.done_b[grank] = 1
        self.results[grank] = result
        self.ndone += 1
        self.last_progress = time.monotonic()

    def _fail_rank(self, grank: int, exc: BaseException) -> None:
        self.done_b[grank] = 1
        self.failures[grank] = exc
        self.ndone += 1
        self.aborted = True

    def _declare_stuck(self) -> None:
        """No runnable rank, no active worker, ranks unfinished: fail them."""
        for grank in range(self.size):
            if self.done_b[grank]:
                continue
            if self.timed_out:
                exc: BaseException = SimMPIError(
                    f"bulk engine stalled: no scheduler progress for "
                    f"{self.timeout}s while rank {grank} was parked on "
                    f"{self._parked_desc(grank)}; raise REPRO_SPMD_TIMEOUT "
                    "if the machine is genuinely this slow"
                )
            elif self.aborted:
                exc = SimMPIError("communicator aborted (another rank failed)")
            else:
                exc = SimMPIError(
                    f"deadlock: rank {grank} is parked on "
                    f"{self._parked_desc(grank)} and no other rank can "
                    "complete it"
                )
            self._fail_rank(grank, exc)
        self.finished = True
        self.cond.notify_all()

    # -- execution ---------------------------------------------------------

    def _execute(self, grank: int) -> None:
        ex = _Exec(self.progs[grank], self.nops[grank])
        self.execs[grank] = ex
        comm = BulkComm(self.world, grank)
        try:
            result = self.fn(comm, *self.args, **self.kwargs)
            self._check_completed_replay(ex, grank)
        except _Suspend:
            return
        except BaseException as exc:  # noqa: BLE001 - fanned out to caller
            with self.cond:
                self._fail_rank(grank, exc)
                self.cond.notify_all()
            return
        finally:
            self.execs[grank] = None
        with self.cond:
            self._finish_rank(grank, result)
            self.cond.notify_all()

    def _check_completed_replay(self, ex: _Exec, grank: int) -> None:
        """Deferred replay verification when a body returns mid-replay.

        The uniform fast path checks the sequence fingerprint at the
        frontier; a nondeterministic body that returns *before* reaching
        its frontier (fewer ops than logged, or a diverging sequence the
        fingerprint accumulated) is caught here instead.
        """
        if ex.cursor < ex.nlogged:
            raise SimMPIError(
                f"non-deterministic rank program: rank {grank} returned "
                f"after {ex.cursor} ops but its log holds {ex.nlogged}; "
                "bulk-engine programs must be deterministic"
            )
        if ex.fast and not ex.verified and ex.fp != ex.prog.fps[ex.cursor]:
            raise SimMPIError(
                f"non-deterministic rank program: rank {grank}'s replayed "
                "op sequence diverged from the logged program (fingerprint "
                "mismatch); bulk-engine programs must be deterministic"
            )

    def _worker(self) -> None:
        while True:
            with self.cond:
                grank = None
                while grank is None:
                    if self.finished or self.ndone >= self.size:
                        self.finished = True
                        self.cond.notify_all()
                        return
                    if self.aborted and self.active == 0:
                        self._declare_stuck()
                        return
                    if self.runnable and not self.aborted:
                        grank = self.runnable.popleft()
                        self.queued_b[grank] = 0
                        if self.done_b[grank]:
                            grank = None
                            continue
                        self.running_b[grank] = 1
                        self.active += 1
                        break
                    if self.active == 0 and not self.runnable:
                        self._declare_stuck()
                        return
                    remaining = None
                    if self.timeout is not None:
                        remaining = self.last_progress + self.timeout - time.monotonic()
                        if remaining <= 0:
                            if not self.timed_out:
                                self.timed_out = True
                                self.aborted = True
                                self.cond.notify_all()
                            if self.active == 0:
                                self._declare_stuck()
                                return
                            # A worker is still executing a rank body; it
                            # will fail at its next op and notify.  Wait —
                            # spinning here would hold the condition lock
                            # and starve that worker.
                            remaining = 0.05
                    self.cond.wait(timeout=remaining)
            self._execute(grank)
            with self.cond:
                self.nexecs += 1
                self.running_b[grank] = 0
                self.active -= 1
                if self.rewake_b[grank]:
                    self.rewake_b[grank] = 0
                    if not self.done_b[grank] and not self.queued_b[grank]:
                        self.queued_b[grank] = 1
                        self.runnable.append(grank)
                self.cond.notify_all()

    def _fill_stats(self) -> None:
        stats = self.stats
        if stats is None:
            return
        rows = set(self.progs)
        stats["engine"] = "bulk"
        stats["ranks"] = self.size
        stats["executions"] = self.nexecs
        stats["programs"] = len(rows)
        stats["uniform_programs"] = sum(prog.uniform for prog in rows)
        stats["waves"] = list(self.wave_log)
        stats["waves_dropped"] = self.wave_log_dropped

    def _teardown(self) -> None:
        """Let go of everything the run created (module docstring, *Lifetime*).

        Rows, columns and waves hang off the engine and its worlds alone,
        so dropping those references frees them at once, object ndarrays
        included; cutting the world -> engine back reference (and what
        the caller handed in or was handed, which may hold communicators)
        leaves no cycle through the engine for a collector to find.
        """
        with self.cond:
            # A worker cut off by an interrupt fails its rank at its next op.
            self.aborted = self.finished = True
        for world in self.worlds:
            world.waves.clear()
            world._mailboxes.clear()
            world.engine = None
        self.worlds.clear()
        self.world = None
        self.progs = self.execs = ()
        self.results, self.failures = (), {}
        self.fn = self.args = self.kwargs = None

    def run(self) -> list[Any]:
        try:
            nworkers = min(self.nworkers, self.size)
            if nworkers == 1:
                self._worker()
            else:
                threads = [
                    threading.Thread(
                        target=self._worker, name=f"bulk-worker-{i}", daemon=True
                    )
                    for i in range(nworkers)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            self._fill_stats()
            if self.failures:
                from repro.simmpi.runner import spmd_failure_error

                raise spmd_failure_error(self.failures)
            return self.results
        finally:
            self._teardown()


def run_spmd_bulk(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float | None = None,
    nworkers: int | None = None,
    stats: dict | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` cooperative ranks.

    Same result contract as :func:`repro.simmpi.runner.run_spmd`; see the
    module docstring for the bulk-engine program contract.  Usually invoked
    as ``run_spmd(..., engine="bulk")``.  If ``stats`` is a dict it is
    filled with engine telemetry on return: ``executions`` (total body
    runs, replay multiplier included), ``programs``/``uniform_programs``
    (shared op-log rows), and ``waves`` — up to ``_WAVE_LOG_CAP``
    ``(world_size, opname, t_created, t_completed)`` tuples the scale
    suite turns into its per-phase breakdown.
    """
    return _BulkEngine(nprocs, fn, args, kwargs, timeout, nworkers, stats).run()
