"""MPI-like communicators over OS processes: the true multi-core engine.

The thread engine (:mod:`repro.simmpi.comm`) and the bulk engine
(:mod:`repro.simmpi.bulk`) both execute rank code under one GIL, so
aggregate bandwidth can never exceed one core no matter how parallel the
byte path is.  This engine runs **one process per rank**: rank bodies
execute preemptively on separate cores, and measured MB/s actually
scales with workers — the property every bandwidth figure of the paper
(weak scaling, task-local write rates) depends on.

Architecture
------------

* **Collectives** travel over one transport: one
  ``multiprocessing.Queue`` mailbox per rank.  Messages carry their
  communicator id, so traffic on a ``split`` subgroup never collides
  with world traffic.  Every collective — the world's included — is
  routed through the communicator's local rank 0 (the *hub*): the other
  ranks post their deposits to it, each with what its result reads, and
  it posts back to each of them only that part of the rank-ordered
  deposits: nothing to a rank that reads nothing (a non-root ``gather``
  rank), the root's slot to a ``bcast`` or ``scatterv`` rank, and every
  slot to an ``allgather`` rank.  No barrier or shared segment exists,
  so nothing a run creates outlives its processes.
* **Results and journal rows** return over a queue at join.  Each child
  ships the rows every live :class:`~repro.backends.journal.Journal`
  appended since the child started, and the parent appends them to its
  journal of the same token, so ``CountingBackend`` counts aggregate
  across processes exactly as they do across threads.

Payload contract
----------------

Everything crosses process boundaries **by value** (pickle) after the
engine-wide :func:`~repro.simmpi.comm._copy_payload` normalization:
arrays arrive as arrays, ``bytearray`` as ``bytearray``, ``memoryview``
as immutable ``bytes`` — a view the in-process engines would pass on
(one of a ``bytes``) is copied at the one pickle boundary,
:func:`_by_value`, which every deposit crosses.  Identity is
never preserved — two ranks can never share an object — which is the
strictest reading of the MPI buffer semantics the other engines emulate.

``exec_once`` semantics
-----------------------

A rank body executes exactly once per run in its own dedicated process,
so :meth:`ProcComm.exec_once` simply calls ``fn`` — once per rank, like
the thread engine.  The process twist is *where* the side effects land:
in-memory effects (globals, caches) live and die with the child process
and are never visible to the parent or sibling ranks; only external
effects (files, sockets) outlive the run.  Programs that are portable
across all three engines should keep ``exec_once`` bodies idempotent in
memory and externally observable only through the backend.

Backend handles
---------------

Handles a rank opens must either be created inside the rank body or be
picklable.  :class:`~repro.backends.localfs.LocalBackend` and open
:class:`~repro.backends.localfs.LocalRawFile` handles pickle (the file
reopens by path in the child; there is no position to restore).  ``SimBackend`` is
**in-process-only**: under ``fork`` each child would get an independent
copy-on-write snapshot of the simulated store and cross-rank writes
would silently vanish, so it refuses to pickle and must not be shared
across ranks of this engine — use ``LocalBackend`` (or keep SimBackend
work on the thread/bulk engines).

Scale envelope: one OS process per rank is practical to a few dozen
ranks (``REPRO_PROC_MAX_RANKS``, default 128).  For simulated worlds of
thousands to hundreds of thousands of ranks, use the bulk engine — this
engine is for *real* data-plane parallelism, not rank-count scale.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_mod
import time
import traceback
from multiprocessing import get_all_start_methods, get_context
from typing import Any, Callable

from repro.backends.journal import adopt, marks, rows_since
from repro.errors import (
    CollectiveMismatchError,
    CommAbortedError,
    CommunicatorError,
    SimMPIError,
)
from repro.simmpi.comm import _ALL, _NONE, Comm, SplitPlan, group_split

#: Maximum world size; one OS process per rank.  Overridable via the
#: ``REPRO_PROC_MAX_RANKS`` environment variable.
DEFAULT_MAX_RANKS = 128

#: Mailbox poll granularity while honouring abort flags and timeouts.
_POLL_S = 0.05

#: Communicator id of the world; subgroup ids are tuples derived from it.
_WORLD_ID = ("w",)

#: Marks a hub reply in the control channel (never a valid local rank).
_HUB = -1


def _by_value(value: Any, depth: int = 2) -> Any:
    """``value`` as it crosses the pickle boundary: every ``memoryview``
    becomes ``bytes``, down to the two sequence levels at which the
    deposit framings put payloads (a ``scatterv`` row's fragments)."""
    if type(value) is memoryview:
        return value.tobytes()
    if depth and type(value) in (tuple, list):
        return type(value)(_by_value(v, depth - 1) for v in value)
    return value


class _Entry:
    """Entry ``index`` of a deposit the hub did not send whole: a column
    member's stand-in for the row it reads one entry of."""

    __slots__ = ("index", "value")

    def __init__(self, index: int, value: Any) -> None:
        self.index, self.value = index, value

    def __getitem__(self, i: int) -> Any:
        if i != self.index:
            raise CommunicatorError(
                f"entry {i} was not sent; this rank reads entry {self.index}"
            )
        return self.value


def _reply_part(slots: list, needs: int, column: bool, src: int) -> Any:
    """What the hub sends member ``src`` of the deposits ``slots``: nothing
    for :data:`_NONE`, the needed slot or every slot, and with ``column``
    only entry ``src`` of each."""
    if needs == _ALL:
        return [row[src] for row in slots] if column else slots
    return slots[needs][src] if column else slots[needs]


def _unpack_reply(reply: "bytes | None", needs: int, column: bool, me: int, size: int) -> list:
    """The slot list a member reads, rebuilt from the part of the
    deposits the hub sent it (:func:`_reply_part`); unsent slots are
    ``None`` and unsent entries of a column member's rows are missing."""
    if needs == _NONE:
        return [None] * size
    part = pickle.loads(reply)
    if needs == _ALL:
        return [_Entry(me, v) for v in part] if column else part
    slots = [None] * size
    slots[needs] = _Entry(me, part) if column else part
    return slots


def default_start_method() -> str:
    """Start method used for rank processes.

    ``REPRO_PROC_START`` overrides; otherwise ``fork`` where available
    (fast, closures and open handles inherit) with ``spawn`` as the
    portable fallback (rank function and arguments must pickle).
    """
    methods = get_all_start_methods()
    env = os.environ.get("REPRO_PROC_START", "").strip()
    if not env:
        return "fork" if "fork" in methods else "spawn"
    if env not in methods:
        raise SimMPIError(f"REPRO_PROC_START must be one of {methods}, got {env!r}")
    return env


def _max_ranks() -> int:
    """The world-size cap: ``REPRO_PROC_MAX_RANKS`` or the default."""
    raw = os.environ.get("REPRO_PROC_MAX_RANKS", "")
    if not raw.strip():
        return DEFAULT_MAX_RANKS
    try:
        return int(raw)
    except ValueError:
        raise SimMPIError(
            f"REPRO_PROC_MAX_RANKS must be a whole number of ranks, got {raw!r}"
        ) from None


class _ProcShared:
    """Synchronization state shared by every rank process of one world.

    Created in the parent; reaches children by inheritance (fork) or by
    pickling through ``Process`` args (spawn) — every field is either
    a picklable multiprocessing primitive or plain data.
    """

    def __init__(self, ctx, size: int, timeout: float | None) -> None:
        self.size = size
        self.timeout = timeout
        self.abort_event = ctx.Event()
        self.mailboxes = [ctx.Queue() for _ in range(size)]

    def abort(self) -> None:
        """Raise in every rank blocked on a mailbox (they poll the event)."""
        self.abort_event.set()


class _Runtime:
    """One rank process's engine state: mailbox stash and sequencers."""

    def __init__(self, shared: _ProcShared, world_rank: int) -> None:
        self.shared = shared
        self.world_rank = world_rank
        #: Messages pulled off the mailbox but not yet consumed.
        self.stash: list[tuple] = []
        #: Per-communicator collective sequence numbers (hub routing).
        self.seq: dict[tuple, int] = {}
        #: Per-communicator child-context counters (split determinism).
        self.ctx_seq: dict[tuple, int] = {}

    def post(self, world_dest: int, message: tuple) -> None:
        self.shared.mailboxes[world_dest].put(message)

    def wait_for(
        self, match: Callable[[tuple], bool], what: str
    ) -> tuple:
        """Block until a mailbox message satisfies ``match``.

        Non-matching messages are stashed for later collectives.  Honours
        the world abort flag and the communicator timeout.
        """
        for i, msg in enumerate(self.stash):
            if match(msg):
                return self.stash.pop(i)
        mailbox = self.shared.mailboxes[self.world_rank]
        timeout = self.shared.timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self.shared.abort_event.is_set():
                raise CommAbortedError(
                    "communicator aborted while waiting for a message"
                )
            wait = _POLL_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise SimMPIError(f"timed out waiting for {what}")
                wait = min(wait, remaining)
            try:
                msg = mailbox.get(timeout=wait)
            except queue_mod.Empty:
                continue
            if match(msg):
                return msg
            self.stash.append(msg)

    def next_seq(self, comm_id: tuple) -> int:
        n = self.seq.get(comm_id, 0)
        self.seq[comm_id] = n + 1
        return n

    def next_ctx(self, comm_id: tuple) -> int:
        n = self.ctx_seq.get(comm_id, 0)
        self.ctx_seq[comm_id] = n + 1
        return n


class _Group:
    """One communicator group as a rank process sees it."""

    def __init__(self, rt: _Runtime, cid: tuple, members: tuple[int, ...]) -> None:
        self.rt = rt
        #: Communicator id: messages carry it, so groups never mix traffic.
        self.id = cid
        #: Local rank -> world rank.
        self.members = members
        self.size = len(members)


class ProcComm(Comm):
    """One rank's communicator handle on the process engine: the
    transport behind :class:`repro.simmpi.comm.Comm` whose collectives
    are hub-routed over the per-rank mailboxes.
    """

    def __init__(self, group: _Group, rank: int) -> None:
        self._group = group
        self._rank = rank

    def _exchange(
        self,
        opname: str,
        value: Any,
        frame: Callable[[Any], Any],
        needs: int,
        read: Callable[[Any], Any],
        shared: bool = False,
        column: bool = False,
    ) -> Any:
        """Deposit/synchronize/read primitive behind every collective,
        routed through local rank 0 (the hub).  Every rank waits for the
        hub's reply (``shared`` is moot); each member sends its ``needs``
        and ``column`` with its deposit, and the reply carries only that:
        nothing for :data:`_NONE`, the root's slot for a root index,
        every slot for :data:`_ALL` — and with ``column`` (scatter,
        scatterv, alltoall) only the member's own entry of each.  The hub
        pickles each distinct reply once."""
        value = _by_value(frame(value))
        group = self._group
        rt, cid, members = group.rt, group.id, group.members
        seq = rt.next_seq(cid)
        if self._rank != 0:
            rt.post(members[0], (cid, seq, self._rank, opname, value, (needs, column)))
            _, _, _, op, reply = rt.wait_for(
                lambda m: m[0] == cid and m[1] == seq and m[2] == _HUB,
                what=f"hub reply for {opname}#{seq} on {cid}",
            )
            slots = _unpack_reply(reply, needs, column, self._rank, len(members))
            names = {op, opname}
        else:
            slots = [None] * len(members)
            slots[0] = value
            wants = [(needs, column)] * len(members)
            names = {opname}
            for _ in members[1:]:
                _, _, src, op, payload, want = rt.wait_for(
                    lambda m: m[0] == cid and m[1] == seq and m[2] != _HUB,
                    what=f"deposits for {opname}#{seq} on {cid}",
                )
                slots[src] = payload
                wants[src] = want
                names.add(op)
        if len(names) > 1:
            self._abort()
            raise CollectiveMismatchError(
                f"ranks disagree on collective operation: {sorted(names)}"
            )
        if self._rank == 0 and len(members) > 1:
            # Snapshot the replies before ``read`` hands the hub its result:
            # a queue pickles in a feeder thread, by when the hub's rank
            # body may already have mutated that result in place.
            replies: dict[tuple, "bytes | None"] = {}
            for src, (dest, (want, col)) in enumerate(zip(members, wants)):
                if src == 0:
                    continue
                key = (want, src if col else -1)  # a column part is per member
                if key not in replies:
                    replies[key] = None if want == _NONE else pickle.dumps(
                        _reply_part(slots, want, col, src), protocol=pickle.HIGHEST_PROTOCOL
                    )
                rt.post(dest, (cid, seq, _HUB, opname, replies[key]))
        return read(slots)

    def _split_groups(self, deposits: Any) -> tuple[SplitPlan, list[_Group]]:
        """Every member computes the same deterministic assignment
        locally; subgroup ids derive from the parent id and a
        per-communicator split counter, so traffic on different subgroups
        never mixes."""
        group = self._group
        rt, cid, members = group.rt, group.id, group.members
        ctx = rt.next_ctx(cid)
        plan = group_split(deposits)
        groups = [
            _Group(rt, (*cid, ctx, child), tuple(members[old] for old in olds.tolist()))
            for child, olds in enumerate(plan.members)
        ]
        return plan, groups

    def _abort(self) -> None:
        self._group.rt.shared.abort()


def _portable_exception(exc: BaseException) -> BaseException:
    """An exception safe to ship over the result queue.

    Returns ``exc`` itself when it pickles; otherwise a ``RuntimeError``
    carrying the original type and traceback text (a plain RuntimeError
    so the abort-fallout filter never mistakes a wrapped user error for
    engine fallout).
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure takes the wrap path
        tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        return RuntimeError(
            f"rank raised unpicklable {type(exc).__name__}: {exc}\n{tb}"
        )


def _child_main(
    shared: _ProcShared,
    rank: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    result_q,
) -> None:
    """Rank process body: run ``fn``, ship its result and journal rows."""
    baseline = marks()
    status = "ok"
    payload: Any = None
    try:
        world = _Group(_Runtime(shared, rank), _WORLD_ID, tuple(range(shared.size)))
        comm = ProcComm(world, rank)
        payload = fn(comm, *args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - fan out to the parent
        shared.abort()
        status, payload = "err", _portable_exception(exc)
    rows = rows_since(baseline)
    try:
        blob = pickle.dumps(
            (rank, status, payload, rows), protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception as exc:  # noqa: BLE001 - report instead of vanishing
        blob = pickle.dumps(
            (
                rank,
                "err",
                RuntimeError(f"rank {rank} result not picklable: {exc!r}"),
                rows,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    result_q.put(blob)


def run_spmd_proc(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` rank *processes*.

    The process-parallel twin of :func:`repro.simmpi.runner.run_spmd`'s
    thread path; normally reached via ``run_spmd(..., engine="proc")``.
    ``timeout`` has already been resolved by the caller (``None``
    disables).  The world's multiprocessing start method is
    :func:`default_start_method`'s; under ``spawn``/``forkserver`` the
    rank function, its arguments, and its return value must pickle.

    Returns rank-ordered results; raises
    :class:`~repro.errors.SpmdWorkerError` if any rank failed, with
    abort fallout filtered by the engines' shared failure policy.
    """
    from repro.simmpi.runner import spmd_failure_error

    if nprocs < 1:
        raise CommunicatorError(f"communicator size must be >= 1, got {nprocs}")
    cap = _max_ranks()
    if nprocs > cap:
        raise SimMPIError(
            f"engine='proc' runs one OS process per rank and is capped at "
            f"{cap} ranks (REPRO_PROC_MAX_RANKS); for large simulated "
            f"worlds use engine='bulk'"
        )
    ctx = get_context(default_start_method())
    shared = _ProcShared(ctx, nprocs, timeout)
    result_q = ctx.Queue()
    procs = [
        ctx.Process(
            target=_child_main,
            args=(shared, rank, fn, args, kwargs, result_q),
            name=f"spmd-proc-{rank}",
            daemon=True,
        )
        for rank in range(nprocs)
    ]
    try:
        for p in procs:
            p.start()
        reports = _collect_reports(shared, procs, result_q)
    finally:
        _reap(shared, procs)

    results: list[Any] = [None] * nprocs
    failures: dict[int, BaseException] = {}
    for rank in range(nprocs):
        status, payload, rows = reports[rank]
        adopt(rows)
        if status == "ok":
            results[rank] = payload
        else:
            failures[rank] = payload
    if failures:
        raise spmd_failure_error(failures)
    return results


#: Grace period for a dead child's queued report to surface before the
#: rank is declared failed, and for survivors to drain after an abort.
_REPORT_GRACE_S = 2.0


def _collect_reports(
    shared: _ProcShared, procs: list, result_q
) -> dict[int, tuple[str, Any, list]]:
    """Gather one report per rank, detecting ranks that die silently."""
    nprocs = len(procs)
    reports: dict[int, tuple[str, Any, list]] = {}
    suspects: dict[int, float] = {}
    while len(reports) < nprocs:
        try:
            rank, status, payload, rows = pickle.loads(result_q.get(timeout=0.25))
            reports[rank] = (status, payload, rows)
            suspects.pop(rank, None)
            continue
        except queue_mod.Empty:
            pass
        now = time.monotonic()
        for rank, p in enumerate(procs):
            if rank in reports or p.exitcode is None:
                continue
            since = suspects.setdefault(rank, now)
            if now - since >= _REPORT_GRACE_S:
                reports[rank] = (
                    "err",
                    SimMPIError(
                        f"rank {rank} process died without reporting "
                        f"(exitcode {p.exitcode})"
                    ),
                    [],
                )
                shared.abort()
    return reports


def _reap(shared: _ProcShared, procs: list) -> None:
    """Join all rank processes, escalating to terminate on stragglers.

    Skips processes that were never started (a start-time failure, e.g.
    unpicklable arguments under spawn, leaves the tail of the world
    unstarted and the original error propagating).
    """
    started = [p for p in procs if p.pid is not None]
    deadline = time.monotonic() + _REPORT_GRACE_S
    for p in started:
        p.join(timeout=max(0.0, deadline - time.monotonic()))
    for p in started:
        if p.is_alive():  # pragma: no cover - straggler escalation
            shared.abort()
            p.terminate()
            p.join(timeout=_REPORT_GRACE_S)
