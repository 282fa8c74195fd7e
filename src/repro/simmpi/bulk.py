"""Bulk SPMD engine: a million ranks without the threads — or the logs.

The default :func:`~repro.simmpi.runner.run_spmd` engine gives every rank
its own OS thread, which is faithful but tops out around a few thousand
ranks.  This module executes the same ``fn(comm, ...)`` programs
*cooperatively* — one scheduler loop on the calling thread runs one rank
at a time, so no engine state needs a lock — and keeps the whole control
plane in **flat per-wave arrays** so each rank costs O(1) python objects
of engine state:

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
  log one shared :class:`~repro.simmpi.comm.SplitPlan` per split wave —
  two int arrays, ``child_of[lrank]`` and ``rank_in_child[lrank]``, next
  to the child worlds — so a split's column stays *uniform*.  No per-rank communicator object
  is ever stored: the four-slot :class:`BulkComm` is rebuilt from the
  plan on every replay, exactly as the root communicator is rebuilt by
  every execution.
* **Preallocated wave buffers.**  Each in-flight collective is one
  :class:`_Wave`: an object ndarray of deposit slots, a bool deposit
  bitmap, and a preallocated int32 waiter array.  Waking the world when a
  wave completes is a handful of vectorized index operations over flag
  arrays, not a python loop over a waiter set.
* **One replay check.**  Every replayed op is compared with the opcode
  its rank's own program row logged at that position — one list index
  per op, the same on a row the whole world shares as on a branch row.

Plain Python functions cannot be suspended mid-call without a dedicated
stack, so cooperative scheduling is built on **memoized replay**:

* a rank body runs until it hits a communication op whose result is not
  yet available (e.g. a barrier some ranks have not reached);
* the op's deposit is recorded in the wave buffer, the rank is parked,
  and the loop moves on to another rank;
* when the op completes, parked ranks re-run **from the top** — every
  communication op they already completed returns its column value
  instantly and with no side effects, so the body deterministically
  reaches the frontier and continues.

The number of re-runs per rank is bounded by the number of collectives it
parks on (roughly the program's collective depth), not by world size.

**Program contract** (checked where cheap, documented here in full):

1. Rank bodies must be *deterministic* given their communication results.
   A replay fails with ``SimMPIError`` at the first op that differs from
   the rank's program row, naming the logged op and the called one,
   before that op hands the body a value logged for another op; a body
   that returns before its logged frontier fails too.
2. Non-communication side effects between ops may be re-executed and must
   be idempotent (positioned writes of the same bytes are; truncating
   creates and appends are not).  Guard non-idempotent effects with
   ``Comm.exec_once(fn)``, which executes exactly once and replays its
   result.  Cleanup code (``finally`` blocks, ``__exit__``) that runs
   while a suspension unwinds may *call* communication ops safely: they
   re-suspend without touching any state, and the cleanup re-runs for
   real on replay.
3. Busy-wait loops over ``iprobe()``/``Request.test()`` never yield the
   loop; use blocking ``recv``/``wait`` instead.
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

**Depth-first wake.**  The ranks a completed wave readies — and the
receivers a posted message readies — run *next*: they go to the front of
the run queue, in rank order, ahead of every rank that was already
runnable.  A wave's consumers thus drain its slots, and finished ranks
free their logged values, before another producer fills its own wave.
This is for memory, not speed: with first-in-first-out wake every
collector group of a collective write or a prefetch read deposits before
any consumes, so the whole payload and every parked rank's handles are
alive at once (the space argument for depth-first scheduling in Blumofe
and Leiserson's work-stealing analysis).

Pass ``stats={}`` to :func:`run_spmd_bulk` (or ``engine_stats={}``
through ``run_spmd``) to receive per-wave timing and replay counters —
the raw material of the ``scale`` suite's phase breakdown.

**Deadlock and stall.**  Deadlock is declared the moment the worklist is
empty with ranks unfinished.  The ``timeout`` is a *stall* bound, checked
where the loop regains control — on entry to a frontier op and when a
body parks or returns: a rank body that held the loop longer than that
fails every unfinished rank with "bulk engine stalled".

**Lifetime contract.**  A value only one rank logged dies with that
rank: when its body returns, :meth:`_BulkEngine._finish_rank` drops its
entries from every column it logged, because a finished rank never
replays — the per-rank part (exceptions dict or dense array), and the
column's uniform value too when this rank deposited it first and no
other rank logged the same object (see :class:`_Col`).  Shared values
— a uniform value other ranks logged too, waves, worlds — die with
``run_spmd``: program rows and their columns, in-flight waves,
mailboxes and sub-worlds are reachable only through the engine, and
:meth:`_BulkEngine.run` lets go of all of them in a ``finally`` — on
success, rank failure, deadlock and timeout alike — and cuts every
world's reference back to the engine.
This is not left to the garbage collector because it cannot do it:
``dtype=object`` ndarrays (dense columns, wave slots) are invisible to
CPython's cycle collector, so a cycle engine → program row → column →
logged value → world → engine through one of them would otherwise be
immortal, and with it every file handle the run logged.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import (
    CollectiveMismatchError,
    CommAbortedError,
    CommunicatorError,
    SimMPIError,
)
from repro.simmpi.comm import (
    _ALL,
    _NONE,
    Comm,
    SplitPlan,
    _find_match,
    _int64s,
    group_split,
)


class _Suspend(BaseException):
    """Internal control flow: unwind a rank body back to the scheduler.

    Derives from ``BaseException`` so user-level ``except Exception``
    handlers cannot swallow a suspension.
    """


# --------------------------------------------------------------------------
# Opcode interning.

#: Op names are interned on first use; logs, waves and parked-on
#: descriptors hold the small ints.
_OP_NAMES: list[str] = []
_OP_IDS: dict[str, int] = {}


def _opid(name: str) -> int:
    opid = _OP_IDS.get(name)
    if opid is None:
        opid = _OP_IDS[name] = len(_OP_NAMES)
        _OP_NAMES.append(name)
    return opid


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

    The uniform value is first of all its depositor's own entry:
    ``first`` names that rank and ``shared`` records whether any other
    rank logged the very same object.  Until one did, the value is
    released when ``first`` finishes — every other rank that logged
    here holds an entry of its own — so a per-rank column (a
    ``gather_read`` result, say) does not keep its first rank's value
    until the run ends.
    """

    __slots__ = ("mode", "value", "first", "shared", "exc", "dense")

    def __init__(self) -> None:
        self.mode = 0  # 0 empty, 1 uniform(+exceptions), 2 dense
        self.value: Any = None
        self.first = -1
        self.shared = False
        self.exc: dict[int, Any] | None = None
        self.dense: Any = None

    def put(self, grank: int, value: Any, engine_size: int) -> None:
        """Record ``value`` for ``grank``."""
        mode = self.mode
        if mode == 2:
            self.dense[grank] = value
            return
        if mode == 0:
            self.value = value
            self.first = grank
            self.mode = 1
            return
        if value is self.value:
            self.shared = True
            return
        exc = self.exc
        if exc is None:
            exc = self.exc = {}
        exc[grank] = value
        if len(exc) > _COL_SPILL and engine_size > 2 * _COL_SPILL:
            dense = np.empty(engine_size, dtype=object)
            if self.shared:  # which ranks logged it is not recorded
                dense.fill(self.value)
            else:
                dense[self.first] = self.value
            for g, v in exc.items():
                dense[g] = v
            self.dense = dense
            self.value = self.exc = None
            self.mode = 2

    def drop(self, grank: int) -> None:
        """Forget ``grank``'s own value; a shared value stays."""
        if self.mode == 2:
            self.dense[grank] = None
        else:
            if self.exc is not None:
                self.exc.pop(grank, None)
            if grank == self.first and not self.shared:
                self.value = None

    def get(self, grank: int) -> Any:
        """Logged value for ``grank`` (replay hot path)."""
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
    columns by reference.
    """

    __slots__ = ("ops", "cols", "branches")

    def __init__(
        self, ops: list[int] | None = None, cols: list[_Col] | None = None
    ) -> None:
        self.ops: list[int] = ops if ops is not None else []
        self.cols: list[_Col] = cols if cols is not None else []
        self.branches: dict[tuple[int, int], _Program] = {}


class _Exec:
    """Transient state of one execution (one run of one rank body).

    Created per :meth:`_BulkEngine._execute` call and dropped when the
    body returns, parks, or fails — engine state that must *persist*
    across executions lives in the engine's flat arrays instead.
    """

    __slots__ = ("prog", "cursor", "nlogged", "suspending")

    def __init__(self, prog: _Program, nlogged: int) -> None:
        self.prog = prog
        self.cursor = 0
        self.nlogged = nlogged
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

    def __init__(self, opid: int, size: int, wake_root: int | None) -> None:
        self.opid = opid
        self.slots = np.empty(size, dtype=object)
        self.deposited = bytearray(size)  # indexes as plain ints: hot path
        self.filled = 0
        self.consumed = 0
        #: Parked global ranks, packed front-first; reset on every wake.
        self.waiters = np.empty(size, dtype=np.int32)
        self.nwaiters = 0
        self.wake_root = wake_root  # deposit by this lrank readies waiters
        self.shared: Any = None  # once-computed shared result (allgather, ...)
        self.has_shared = False
        self.t0 = time.monotonic()


class _Mailbox:
    """Point-to-point message store of one (world, local rank)."""

    __slots__ = ("messages", "waiters")

    def __init__(self) -> None:
        self.messages: deque[tuple[int, int, Any]] = deque()
        self.waiters: set[int] = set()


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



class BulkComm(Comm):
    """One rank's communicator handle under the bulk engine: the wave
    buffer + park/replay transport behind :class:`repro.simmpi.comm.Comm`.
    See the module docstring for the few intentional semantic differences.
    """

    __slots__ = ("_group", "_engine", "_rank", "_grank")

    def __init__(self, world: _World, lrank: int) -> None:
        self._group = world
        self._engine = world.engine
        self._rank = lrank
        self._grank = world.granks[lrank]

    # -- replay machinery -------------------------------------------------

    def _replay(self, ex: _Exec, opid: int) -> Any:
        """Return the column value of the op at the cursor (hot path),
        after checking it is the op the rank's row logged there."""
        prog, c = ex.prog, ex.cursor
        if prog.ops[c] != opid:
            raise SimMPIError(
                f"non-deterministic rank program: replay expected "
                f"{_OP_NAMES[prog.ops[c]]!r} but rank {self._grank} called "
                f"{_OP_NAMES[opid]!r}; bulk-engine programs must be "
                "deterministic"
            )
        ex.cursor = c + 1
        col = prog.cols[c]
        if col.exc is None and col.mode == 1:  # uniform: ``_Col.get`` inlined
            return col.value
        return col.get(self._grank)

    def _advance(self, ex: _Exec, opid: int, value: Any) -> Any:
        """Record a completed frontier op in the (shared) program row."""
        engine = self._engine
        g = self._grank
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
                    child = _Program(prog.ops[:k] + [opid], prog.cols[:k] + [_Col()])
                    prog.branches[(k, opid)] = child
                child.cols[k].put(g, value, engine.size)
                engine.progs[g] = ex.prog = child
        else:
            col = _Col()
            col.put(g, value, engine.size)
            prog.ops.append(opid)
            prog.cols.append(col)
        engine.nops[g] = ex.nlogged = ex.cursor = k + 1
        return value

    def _once(self, opname: str, fn: Callable[[], Any]) -> Any:
        """Replay a logged op or execute ``fn`` exactly once.

        Whether a rank has executed its op is exactly ``nops[rank] >
        position`` — the shared program's op count doubles as the
        exec-once bitmap.
        """
        engine = self._engine
        ex = engine.execs[self._grank]
        if ex.suspending:
            raise _Suspend()
        opid = _OP_IDS.get(opname)
        if opid is None:
            opid = _opid(opname)
        if ex.cursor < ex.nlogged:
            return self._replay(ex, opid)
        if engine.aborted or engine.stalled():  # the frontier gate
            raise engine.stuck_error(self._grank)
        before = ex.cursor
        value = fn()
        if ex.cursor != before:
            raise SimMPIError("exec_once callable must not perform communication")
        return self._advance(ex, opid, value)

    def _exchange(
        self,
        opname: str,
        value: Any,
        frame: Callable[[Any], Any],
        needs: int,
        read: Callable[[Any], Any],
        shared: bool = False,
    ) -> Any:
        """Deposit into the frontier wave; park until ``needs`` is met.

        The one transport that honours the readiness hint — a bcast
        returns at the root immediately, a gather blocks only the root —
        and the ``shared`` permission: an allgather list, an allreduce
        fold and a split plan are computed once per wave and handed to
        every rank, which keeps their log columns uniform.
        """
        engine = self._engine
        g = self._grank
        ex = engine.execs[g]
        if ex.suspending:
            raise _Suspend()
        opid = _OP_IDS.get(opname)
        if opid is None:
            opid = _opid(opname)
        if ex.cursor < ex.nlogged:
            # Replay fast path: no deposit, no copy.
            return self._replay(ex, opid)
        if engine.aborted or engine.stalled():  # the frontier gate
            raise engine.stuck_error(g)
        world, lr = self._group, self._rank
        k = world.consumed[lr]
        wave = world.waves.get(k)
        if wave is None:
            # A deposit by the one rank everybody needs readies the waiters.
            wave = world.waves[k] = _Wave(opid, world.size, needs if needs >= 0 else None)
        if wave.opid != opid:
            engine.aborted = True
            raise CollectiveMismatchError(
                "ranks disagree on collective operation: "
                f"{sorted((_OP_NAMES[wave.opid], opname))}"
            )
        if not wave.deposited[lr]:
            wave.deposited[lr] = 1
            wave.slots[lr] = frame(value)
            wave.filled += 1
            if wave.filled == world.size or lr == wave.wake_root:
                engine.wake_wave(wave)
        if not (
            wave.filled == world.size if needs == _ALL
            else needs == _NONE or wave.deposited[needs]
        ):
            nw = wave.nwaiters
            wave.waiters[nw] = g
            wave.nwaiters = nw + 1
            engine.park_collective(g, opid, k, world.size)
            ex.suspending = True
            raise _Suspend()
        if not shared:
            value = read(wave.slots)
        else:
            if not wave.has_shared:
                wave.shared = read(wave.slots)
                wave.has_shared = True
            value = wave.shared
        world.consumed[lr] = k + 1
        wave.consumed += 1
        if wave.consumed == world.size:
            del world.waves[k]
            engine.note_wave_done(world, wave)
        return self._advance(ex, opid, value)

    def _split_groups(self, deposits: np.ndarray) -> tuple[SplitPlan, list[_World]]:
        """Child worlds of a completed split wave.

        Every member logs the same ``(plan, worlds)`` object, so the
        column stays uniform; the communicator itself is rebuilt from it
        on each replay.
        """
        plan = group_split(deposits)
        world = self._group
        granks = plan.members  # of the root world: local rank == global rank
        if not isinstance(world.granks, range):
            table = np.frombuffer(world.granks, np.int64)
            granks = [table[m] for m in plan.members]
        worlds = [_World(world.engine, _int64s(g)) for g in granks]
        return plan, worlds

    def _post(self, dest: int, tag: int, payload: Any) -> None:
        box = self._group.mailbox(dest)
        box.messages.append((self._rank, tag, payload))
        self._engine.wake(box.waiters)

    def _match(self, source: int, tag: int, block: bool) -> tuple[int, int, Any] | None:
        box = self._group.mailbox(self._rank)
        i = _find_match(box.messages, source, tag)
        if i is not None:
            msg = box.messages[i]
            del box.messages[i]
            return msg
        if block:
            engine, g = self._engine, self._grank
            box.waiters.add(g)
            engine.park_recv(g, source, tag)
            engine.execs[g].suspending = True
            raise _Suspend()
        return None

    def _probe(self, source: int, tag: int) -> bool:
        return _find_match(self._group.mailbox(self._rank).messages, source, tag) is not None

    def _abort(self) -> None:
        self._engine.aborted = True


#: Per-wave timing entries kept for engine stats before dropping.
_WAVE_LOG_CAP = 4096


class _BulkEngine:
    """Worklist scheduler executing logical ranks, one at a time, on the
    calling thread.

    All persistent per-rank state is packed into flat arrays (program
    row refs, op counts, scheduler flags, parked-on descriptors); the
    only per-rank python objects are the transient :class:`_Exec` of the
    rank currently executing and whatever the rank bodies themselves
    allocate.
    """

    def __init__(
        self,
        nprocs: int,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        timeout: float | None,
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
        #: Monotonic time at which the scheduler last had control (a rank
        #: entered a frontier op, parked or returned).  The timeout is a
        #: *stall* bound — it fires only when a rank body has held the
        #: loop for more than ``timeout`` seconds, matching the thread
        #: engine's per-wait semantics rather than capping healthy long
        #: runs.
        self.last_progress = time.monotonic()

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
        self.done_v = np.frombuffer(self.done_b, dtype=np.bool_)
        self.queued_v = np.frombuffer(self.queued_b, dtype=np.bool_)

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
        self.aborted = False
        self.timed_out = False

        # Stats counters (satellite telemetry, no hot-path cost beyond
        # the per-wave append).
        self.nexecs = 0
        self.wave_log: list[tuple[int, str, float, float]] = []
        self.wave_log_dropped = 0

    # -- scheduler state transitions ---------------------------------------

    def wake(self, waiters: set[int]) -> None:
        """Run a mailbox's parked receivers next, in rank order (module
        docstring, *Depth-first wake*)."""
        go = [g for g in sorted(waiters) if not (self.done_b[g] or self.queued_b[g])]
        for g in go:
            self.queued_b[g] = 1
        self.runnable.extendleft(reversed(go))
        waiters.clear()

    def wake_wave(self, wave: _Wave) -> None:
        """Run the ranks a completed wave readies next, in rank order
        (module docstring, *Depth-first wake*) — vectorized over the flag
        views."""
        nw = wave.nwaiters
        wave.nwaiters = 0
        w = np.sort(wave.waiters[:nw])
        go = w[~(self.done_v[w] | self.queued_v[w])]
        self.queued_v[go] = True
        self.runnable.extendleft(go[::-1].tolist())

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

    def stalled(self) -> bool:
        """Check the stall bound; called where the loop regains control —
        on entry to a frontier op and when a body parks or returns."""
        now = time.monotonic()
        if self.timeout is not None and now - self.last_progress > self.timeout:
            self.timed_out = self.aborted = True
            return True
        self.last_progress = now
        return False

    def stuck_error(self, grank: int) -> SimMPIError:
        """Why an unfinished rank can no longer finish."""
        if self.timed_out:
            return SimMPIError(
                f"bulk engine stalled: no scheduler progress for "
                f"{self.timeout}s while rank {grank} was parked on "
                f"{self._parked_desc(grank)}; raise REPRO_SPMD_TIMEOUT "
                "if the machine is genuinely this slow"
            )
        if self.aborted:
            return CommAbortedError("communicator aborted (another rank failed)")
        return SimMPIError(
            f"deadlock: rank {grank} is parked on "
            f"{self._parked_desc(grank)} and no other rank can "
            "complete it"
        )

    def _finish_rank(self, grank: int, result: Any) -> None:
        """Record ``result`` and free the rank's own logged values: a
        finished rank never replays, so nothing reads them again."""
        self.done_b[grank] = 1
        self.results[grank] = result
        self.ndone += 1
        for col in self.progs[grank].cols[: self.nops[grank]]:
            col.drop(grank)

    def _fail_rank(self, grank: int, exc: BaseException) -> None:
        self.done_b[grank] = 1
        self.failures[grank] = exc
        self.ndone += 1
        self.aborted = True

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
            self._fail_rank(grank, exc)
            return
        finally:
            self.execs[grank] = None
        self._finish_rank(grank, result)

    def _check_completed_replay(self, ex: _Exec, grank: int) -> None:
        """A body that returns before its logged frontier: every op it
        replayed matched its row, but it skipped ops the row holds."""
        if ex.cursor < ex.nlogged:
            raise SimMPIError(
                f"non-deterministic rank program: rank {grank} returned "
                f"after {ex.cursor} ops but its log holds {ex.nlogged}; "
                "bulk-engine programs must be deterministic"
            )

    def _loop(self) -> None:
        """Run the worklist dry.  Deadlock is declared the moment it is
        empty with ranks unfinished; an abort or a stall fails them too."""
        runnable = self.runnable
        while self.ndone < self.size:
            if self.aborted or not runnable:
                for grank in range(self.size):
                    if not self.done_b[grank]:
                        self._fail_rank(grank, self.stuck_error(grank))
                return
            grank = runnable.popleft()
            self.queued_b[grank] = 0
            if not self.done_b[grank]:
                self._execute(grank)
                self.nexecs += 1
                self.stalled()

    def _fill_stats(self) -> None:
        stats = self.stats
        if stats is None:
            return
        stats["engine"] = "bulk"
        stats["ranks"] = self.size
        stats["executions"] = self.nexecs
        stats["programs"] = len(set(self.progs))
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
            self._loop()
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
    as ``run_spmd(..., engine="bulk")``.  ``nworkers`` is accepted and
    ignored: the engine has no worker pool (ranks run one at a time on the
    calling thread), and the keyword stays only so that callers written
    for the pool keep working.  If ``stats`` is a dict it is
    filled with engine telemetry on return: ``engine`` (``"bulk"``),
    ``ranks``, ``executions`` (total body runs, replay multiplier
    included), ``programs`` (shared op-log rows), ``waves`` — up to
    ``_WAVE_LOG_CAP`` ``(world_size, opname, t_created, t_completed)``
    tuples the scale suite turns into its per-phase breakdown — and
    ``waves_dropped`` (completed waves past that cap).
    """
    return _BulkEngine(nprocs, fn, args, kwargs, timeout, stats).run()
