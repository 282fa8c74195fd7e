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

* **Collectives and point-to-point** share one transport: one
  ``multiprocessing.Queue`` mailbox per rank.  Messages carry their
  communicator id, so traffic on a ``split`` subgroup never collides
  with world traffic.  Every collective — the world's included — is
  routed through the communicator's local rank 0 (the *hub*): the other
  ranks post their deposits to it, and it posts the rank-ordered
  deposits back to each of them.  No barrier or shared segment exists,
  so nothing a run creates outlives its processes.
* **Results and telemetry** return over a queue at join.  Each child
  ships per-:class:`~repro.backends.instrument.IOStats` counter deltas
  alongside its result, and the parent merges them into the live stats
  objects, so ``CountingBackend`` telemetry aggregates across processes
  exactly as it does across threads.

Payload contract
----------------

Everything crosses process boundaries **by value** (pickle) after the
engine-wide :func:`~repro.simmpi.comm._copy_payload` normalization:
arrays arrive as arrays, ``bytearray`` as ``bytearray``, ``memoryview``
as immutable ``bytes``.  Identity is never preserved — two ranks can
never share an object — which is the strictest reading of the MPI
buffer semantics the other engines emulate.

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

from repro.backends.instrument import snapshot_live_stats, stats_deltas
from repro.errors import (
    CollectiveMismatchError,
    CommAbortedError,
    CommunicatorError,
    SimMPIError,
)
from repro.simmpi.comm import Comm, SplitPlan, _matches, group_split

#: Maximum world size; one OS process per rank.  Overridable via the
#: ``REPRO_PROC_MAX_RANKS`` environment variable.
DEFAULT_MAX_RANKS = 128

#: Mailbox poll granularity while honouring abort flags and timeouts.
_POLL_S = 0.05

#: Communicator id of the world; subgroup ids are tuples derived from it.
_WORLD_ID = ("w",)

#: Marks a hub reply in the control channel (never a valid local rank).
_HUB = -1


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

        Non-matching messages are stashed for later receives.  Honours
        the world abort flag and the communicator timeout.
        """
        msg = self.take(match)
        if msg is not None:
            return msg
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
                    raise SimMPIError(f"recv timed out waiting for {what}")
                wait = min(wait, remaining)
            try:
                msg = mailbox.get(timeout=wait)
            except queue_mod.Empty:
                continue
            if match(msg):
                return msg
            self.stash.append(msg)

    def take(self, match: Callable[[tuple], bool]) -> tuple | None:
        """Pop the first stashed message satisfying ``match``, if any."""
        for i, msg in enumerate(self.stash):
            if match(msg):
                return self.stash.pop(i)
        return None

    def drain(self) -> None:
        """Pull everything currently queued into the stash (probe path)."""
        mailbox = self.shared.mailboxes[self.world_rank]
        while True:
            try:
                self.stash.append(mailbox.get_nowait())
            except queue_mod.Empty:
                return

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
    ) -> Any:
        """Deposit/synchronize/read primitive behind every collective,
        routed through local rank 0 (the hub).  ``needs`` and ``shared``
        are moot: every rank waits for the hub's reply and reads its own,
        unpickled, copy of the deposits."""
        value = frame(value)
        group = self._group
        rt, cid, members = group.rt, group.id, group.members
        seq = rt.next_seq(cid)
        if self._rank != 0:
            rt.post(members[0], ("c", cid, seq, self._rank, opname, value))
            _, _, _, _, op, reply = rt.wait_for(
                lambda m: m[0] == "c" and m[1] == cid and m[2] == seq and m[3] == _HUB,
                what=f"hub reply for {opname}#{seq} on {cid}",
            )
            slots = pickle.loads(reply)
            names = {op, opname}
        else:
            slots = [None] * len(members)
            slots[0] = value
            names = {opname}
            for _ in members[1:]:
                _, _, _, src, op, payload = rt.wait_for(
                    lambda m: m[0] == "c" and m[1] == cid and m[2] == seq and m[3] != _HUB,
                    what=f"deposits for {opname}#{seq} on {cid}",
                )
                slots[src] = payload
                names.add(op)
        if len(names) > 1:
            self._abort()
            raise CollectiveMismatchError(
                f"ranks disagree on collective operation: {sorted(names)}"
            )
        if self._rank == 0 and len(members) > 1:
            # Snapshot the reply before ``read`` hands the hub its result:
            # a queue pickles in a feeder thread, by when the hub's rank
            # body may already have mutated that result in place.
            reply = pickle.dumps(slots, protocol=pickle.HIGHEST_PROTOCOL)
            for dest in members[1:]:
                rt.post(dest, ("c", cid, seq, _HUB, opname, reply))
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

    def _post(self, dest: int, tag: int, payload: Any) -> None:
        group = self._group
        group.rt.post(group.members[dest], ("u", group.id, self._rank, tag, payload))

    def _find_user(self, source: int, tag: int) -> Callable[[tuple], bool]:
        """Predicate for this group's user messages that a receive for
        ``(source, tag)`` matches."""
        cid = self._group.id
        return lambda m: (
            m[0] == "u" and m[1] == cid and _matches(source, tag, m[2], m[3])
        )

    def _match(self, source: int, tag: int, block: bool) -> tuple[int, int, Any] | None:
        rt = self._group.rt
        match = self._find_user(source, tag)
        if block:
            return rt.wait_for(match, what=f"source={source} tag={tag}")[2:]
        rt.drain()
        msg = rt.take(match)
        return None if msg is None else msg[2:]

    def _probe(self, source: int, tag: int) -> bool:
        rt = self._group.rt
        rt.drain()
        return any(map(self._find_user(source, tag), rt.stash))

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
    """Rank process body: run ``fn``, ship result + telemetry deltas."""
    baseline = snapshot_live_stats()
    status = "ok"
    payload: Any = None
    try:
        world = _Group(_Runtime(shared, rank), _WORLD_ID, tuple(range(shared.size)))
        comm = ProcComm(world, rank)
        payload = fn(comm, *args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - fan out to the parent
        shared.abort()
        status, payload = "err", _portable_exception(exc)
    deltas = stats_deltas(baseline, snapshot_live_stats())
    try:
        blob = pickle.dumps(
            (rank, status, payload, deltas), protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception as exc:  # noqa: BLE001 - report instead of vanishing
        blob = pickle.dumps(
            (
                rank,
                "err",
                RuntimeError(f"rank {rank} result not picklable: {exc!r}"),
                deltas,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    result_q.put(blob)


def run_spmd_proc(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float | None = None,
    start_method: str | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` rank *processes*.

    The process-parallel twin of :func:`repro.simmpi.runner.run_spmd`'s
    thread path; normally reached via ``run_spmd(..., engine="proc")``.
    ``timeout`` has already been resolved by the caller (``None``
    disables).  ``start_method`` overrides the world's multiprocessing
    start method (default: :func:`default_start_method`); under
    ``spawn``/``forkserver`` the rank function, its arguments, and its
    return value must pickle.

    Returns rank-ordered results; raises
    :class:`~repro.errors.SpmdWorkerError` if any rank failed, with
    abort fallout filtered by the engines' shared failure policy.
    """
    from repro.backends.instrument import apply_stats_deltas
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
    ctx = get_context(start_method or default_start_method())
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
        status, payload, deltas = reports[rank]
        if deltas:
            apply_stats_deltas(deltas)
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
            rank, status, payload, deltas = pickle.loads(result_q.get(timeout=0.25))
            reports[rank] = (status, payload, deltas)
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
