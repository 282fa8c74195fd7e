"""The MPI-like communicator — defined once — and its thread transport.

:class:`Comm` is one rank's view of a communication group and the single
definition of the communicator surface: every argument check, the
payload snapshot of each deposit, the extraction of each rank's result,
the one :class:`Request` class, the one message-match predicate and the
one ``(color, key)`` grouper live here.  An engine is a subclass that
supplies only a *transport* (see "Transport interface" on :class:`Comm`):
:class:`ThreadComm` below, :class:`repro.simmpi.bulk.BulkComm` and
:class:`repro.simmpi.proc.ProcComm`.

Thread transport: all ranks of a group share a :class:`_Backbone`
carrying the synchronization primitives.  Collectives follow a deposit /
barrier / read / barrier pattern so that a slot array can be reused
safely between consecutive operations.

**Payload contract** (MPI buffer semantics, normalized in
:func:`_copy_payload`): mutable buffer-like payloads — NumPy arrays,
``bytearray``, ``memoryview`` — are **snapshotted at deposit time**, so
the sender may reuse or mutate its buffer the moment ``send``/``bcast``/…
returns, and the receiver owns what it gets.  Arrays arrive as arrays and
``bytearray`` as ``bytearray``; a ``memoryview`` (including views of
arrays or of the zero-copy I/O path's staging buffers) arrives as
immutable ``bytes`` — the view would otherwise dangle once the sender's
buffer is reused, exactly the "silent conversion surprise" this contract
pins down.  Everything else travels by reference, which is safe for the
immutable metadata tuples the SION layer exchanges.
"""

from __future__ import annotations

import threading
from array import array
from itertools import compress
from operator import index
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.errors import (
    CollectiveMismatchError,
    CommAbortedError,
    CommunicatorError,
    SimMPIError,
)

#: Wildcard source for :meth:`Comm.recv`.
ANY_SOURCE = -1
#: Wildcard tag for :meth:`Comm.recv`.
ANY_TAG = -1

#: Returned by :meth:`Comm.split` for ranks passing ``color=None``.
COMM_NULL = None

#: Readiness hints of :meth:`Comm._exchange`: whose deposits a rank's
#: result needs.  A rank number ``>= 0`` means "that rank's only".
_ALL = -1
_NONE = -2


#: Exact types that are immutable (or travel by reference anyway) and can
#: skip the snapshot type dispatch entirely.  This is the hot path: SION
#: metadata exchange deposits ints, strings, bytes and tuples of those on
#: every collective, and none of them need copying.
_IMMUTABLE_FAST = frozenset(
    (int, float, complex, bool, str, bytes, tuple, frozenset, type(None))
)


def _copy_payload(value: Any) -> Any:
    """Snapshot mutable buffer-like payloads at deposit time.

    The type mapping is part of the public contract (see module
    docstring): ``ndarray -> ndarray`` (contiguous copy), ``bytearray ->
    bytearray``, ``memoryview -> bytes`` (an immutable snapshot: the
    receiver must never observe later mutations of the sender's
    underlying buffer, and a live view would also pin — or break, once
    resized — buffers like the coalescing writer's staging area).
    Non-contiguous memoryviews flatten in C order, matching ``tobytes``.
    Immutable payloads (ints, strings, bytes, tuples, ...) pass through
    untouched via an exact-type fast path.
    """
    if value.__class__ in _IMMUTABLE_FAST:
        return value
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, bytearray):
        return bytearray(value)
    if isinstance(value, memoryview):
        return value.tobytes()
    return value


# Deposit framings: how a collective's argument becomes its deposit.  A
# transport applies the framing when it actually deposits, so a bulk-engine
# replay — which deposits nothing — copies nothing.  Tuples and lists
# travel by reference through ``_copy_payload``, hence the per-element
# snapshots for the sequence-shaped deposits.


def _as_is(value: Any) -> Any:
    return value


def _copy_each(values: Sequence[Any]) -> list[Any]:
    return [_copy_payload(v) for v in values]


def _copy_fragments(fragments: Sequence[Any]) -> tuple[Any, ...]:
    return tuple(_copy_payload(f) for f in fragments)


def _copy_fragment_rows(rows: Sequence[Sequence[Any]]) -> list[tuple[Any, ...]]:
    return [_copy_fragments(seq) for seq in rows]


def _read_nothing(slots: Any) -> None:
    """Reader for ranks whose collective result is ``None`` (barrier, ...)."""
    return None


def _fold(values: Iterable[Any], op: Callable[[Any, Any], Any] | None) -> Any:
    it = iter(values)
    try:
        acc = next(it)
    except StopIteration:  # pragma: no cover - size >= 1 enforced
        raise CommunicatorError("reduce over empty communicator") from None
    if op is None:
        for v in it:
            acc = acc + v
    else:
        for v in it:
            acc = op(acc, v)
    return acc


def _matches(source: int, tag: int, src: int, tg: int) -> bool:
    """Does a receive for ``(source, tag)`` match a message from ``src``
    tagged ``tg``?  The one match predicate of all three engines."""
    return source in (ANY_SOURCE, src) and tag in (ANY_TAG, tg)


def _find_match(messages: Iterable[tuple], source: int, tag: int) -> int | None:
    """Index of the first ``(src, tag, payload)`` message that matches."""
    for i, (src, tg, _) in enumerate(messages):
        if _matches(source, tag, src, tg):
            return i
    return None


class SplitPlan(NamedTuple):
    """Outcome of one split, the same for every rank of the parent group.

    Parent rank ``r`` became rank ``rank_in_child[r]`` of child
    ``child_of[r]``, or got ``COMM_NULL`` where ``child_of[r]`` is -1
    (``color=None``); ``members[c]`` lists child ``c``'s parent ranks in
    new-rank order.  ``error`` is set, and there are no children, when
    the deposits could not be grouped.
    """

    child_of: array
    rank_in_child: array
    members: list[np.ndarray]
    error: Exception | None


def _int64s(values: np.ndarray) -> array:
    """An int64 ndarray as an ``array``: indexing it yields python ints."""
    return array("q", values.astype(np.int64, copy=False).tobytes())


def group_split(deposits: Iterable[tuple[Any, Any]]) -> SplitPlan:
    """Group a split's rank-ordered ``(color, key)`` deposits.

    One stable sort on ``(color, key)`` over the members in old-rank
    order — so ties fall back to the old rank — replaces per-rank tuples
    and an n-entry dict; children are numbered by ascending color.
    Colors and keys must be integers (``operator.index``: ``bool`` and
    numpy integers qualify).  Never raises: transports call this between
    synchronization points, where an escaping exception would strand the
    other ranks until the timeout — so a failure is *returned* in the
    plan and raised by every rank after the exchange completes.
    """
    colors, keys = zip(*deposits)
    n = len(colors)
    member = [c is not None for c in colors]
    old = np.flatnonzero(member)
    if len(old) < n:
        colors, keys = compress(colors, member), compress(keys, member)
    try:
        color = np.fromiter(map(index, colors), np.int64, len(old))
        key = np.fromiter(map(index, keys), np.int64, len(old))
    except (TypeError, OverflowError) as exc:
        return SplitPlan(array("q"), array("q"), [], exc)
    order = np.lexsort((key, color))
    color, old = color[order], old[order]
    # ``color`` is sorted: each child is one run, ``starts`` its first slot.
    _, starts, child = np.unique(color, return_index=True, return_inverse=True)
    child_of = np.full(n, -1, dtype=np.int64)
    child_of[old] = child
    rank_in_child = np.zeros(n, dtype=np.int64)
    rank_in_child[old] = np.arange(len(old)) - starts[child]
    bounds = [*starts.tolist(), len(old)]
    members = [old[a:b] for a, b in zip(bounds, bounds[1:])]
    return SplitPlan(_int64s(child_of), _int64s(rank_in_child), members, None)


class Comm:
    """One rank's handle on a communicator.

    Mirrors the subset of MPI used by SIONlib and the example applications:
    ``rank``/``size``, ``barrier``, ``bcast``, ``gather``/``gatherv``,
    ``allgather``, ``scatter``/``scatterv``, ``alltoall``,
    ``reduce``/``allreduce``, ``send``/``recv``, ``split`` and ``dup``.

    **Transport interface.**  A subclass is constructed as ``cls(group,
    rank)``, keeps them as ``_group`` (the state its ranks share; has a
    ``size``) and ``_rank``, and implements five things:

    * ``_exchange(opname, value, frame, needs, read, shared)`` — deposit
      ``frame(value)``, and return ``read(slots)`` over the rank-ordered
      deposits once those named by ``needs`` (:data:`_ALL`,
      :data:`_NONE` or one rank) are in.  ``needs`` is a hint: a
      transport may wait for everyone.  With ``shared`` the result may
      be computed once and handed to every rank.  Mismatched ``opname``
      across ranks raises :class:`CollectiveMismatchError`.
    * ``_post(dest, tag, payload)`` / ``_match(source, tag, block)`` /
      ``_probe(source, tag)`` — buffer a message, consume the first
      matching one as ``(source, tag, payload)`` (``None`` if
      non-blocking and absent), test for one.
    * ``_split_groups(deposits)`` — the reader of a split's exchange:
      ``(plan, groups)`` with ``plan = group_split(deposits)`` and one
      new group per entry of ``plan.members``.
    * ``_once(opname, fn)`` — run ``fn`` where a rank program reaches it
      for the first time.  The default calls it: thread and process
      ranks execute exactly once.
    * ``_abort()`` — break every synchronization point of the group.
    """

    __slots__ = ()

    # -- introspection ----------------------------------------------------

    @property
    def rank(self) -> int:
        """This task's rank within the communicator (0-based)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self._group.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} rank={self._rank} size={self.size}>"

    # -- argument checks ---------------------------------------------------

    def _check_rank(self, what: str, rank: int) -> None:
        if not 0 <= rank < self._group.size:
            raise CommunicatorError(
                f"{what} {rank} out of range for size {self.size}"
            )

    def _check_match(self, source: int, tag: int) -> None:
        if source != ANY_SOURCE:
            self._check_rank("source", source)
        if tag != ANY_TAG and tag < 0:
            raise CommunicatorError("tags must be non-negative (or ANY_TAG)")

    def _check_rows(self, values: Sequence[Any] | None, what: str) -> None:
        """One entry per rank, or abort the group and raise: the other
        ranks are already on their way into the collective."""
        if values is None or len(values) != self.size:
            self._abort()
            raise CommunicatorError(what)

    def _once(self, opname: str, fn: Callable[[], Any]) -> Any:
        return fn()

    # -- collectives -------------------------------------------------------

    def _to_root(
        self, opname: str, value: Any, frame: Callable, root: int, read: Callable
    ) -> Any:
        """Rooted collection: only ``root`` waits for, and reads, the deposits."""
        self._check_rank("root", root)
        if self._rank == root:
            return self._exchange(opname, value, frame, _ALL, read)
        return self._exchange(opname, value, frame, _NONE, _read_nothing)

    def _from_root(
        self, opname: str, rows: Sequence[Any] | None, frame: Callable, root: int,
        what: str,
    ) -> Any:
        """Rooted distribution: every rank needs only ``root``'s deposit."""
        self._check_rank("root", root)
        me = self._rank
        if me == root:
            self._check_rows(rows, what)
        else:
            rows, frame = None, _as_is
        return self._exchange(opname, rows, frame, root, lambda slots: slots[root][me])

    def barrier(self) -> None:
        """Block until every rank of the communicator has entered."""
        self._exchange("barrier", None, _as_is, _ALL, _read_nothing)

    def bcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast ``value`` from ``root`` to every rank; returns it."""
        self._check_rank("root", root)
        deposit = value if self._rank == root else None
        return self._exchange(
            "bcast", deposit, _copy_payload, root, lambda slots: slots[root]
        )

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank at ``root``.

        Returns the rank-ordered list at ``root`` and ``None`` elsewhere.
        """
        return self._to_root("gather", value, _copy_payload, root, list)

    def allgather(self, value: Any) -> list[Any]:
        """Gather one value per rank and return the list on every rank."""
        return self._exchange("allgather", value, _copy_payload, _ALL, list, shared=True)

    def gatherv(self, fragments: Sequence[Any], root: int = 0) -> list[tuple[Any, ...]] | None:
        """Gather a *variable-length* fragment sequence per rank at ``root``.

        The vectored gather behind collector-rank aggregation
        (:mod:`repro.sion.collective`): each rank contributes any number
        of buffer fragments, and ``root`` receives the rank-ordered list
        of fragment tuples.  Every fragment is snapshotted at deposit per
        the payload contract (``memoryview -> bytes``), so senders may
        reuse their buffers the moment the call returns.  Non-root ranks
        receive ``None``; under the bulk engine only the root blocks
        (MPI-relaxed readiness).
        """
        return self._to_root("gatherv", fragments, _copy_fragments, root, list)

    def scatterv(
        self, values: Sequence[Sequence[Any]] | None, root: int = 0
    ) -> tuple[Any, ...]:
        """Scatter a *variable-length* fragment sequence to each rank.

        ``root`` provides one sequence per rank (``len == size``); every
        rank receives its sequence as a tuple.  The vectored mirror of
        :meth:`gatherv`, used to distribute per-sender read fragments
        from a collector rank.  Fragments follow the payload contract.
        Under the bulk engine non-root ranks only wait for the root's
        deposit, as real MPI allows.
        """
        return self._from_root(
            "scatterv", values, _copy_fragment_rows, root,
            "scatterv requires exactly one fragment sequence per rank at the root",
        )

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter ``len == size`` values from ``root``; each rank gets one."""
        return self._from_root(
            "scatter", values, _copy_each, root,
            "scatter requires exactly one value per rank at the root",
        )

    def alltoall(self, values: Sequence[Any]) -> list[Any]:
        """Each rank provides one value per destination; returns its column."""
        self._check_rows(values, "alltoall requires exactly one value per rank")
        me = self._rank
        return self._exchange(
            "alltoall", values, _copy_each, _ALL, lambda slots: [row[me] for row in slots]
        )

    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] | None = None,
        root: int = 0,
    ) -> Any | None:
        """Reduce one value per rank at ``root`` (default op: ``+``)."""
        return self._to_root(
            "reduce", value, _copy_payload, root, lambda slots: _fold(slots, op)
        )

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Reduce one value per rank; the result is returned on every rank."""
        return self._exchange(
            "allreduce", value, _copy_payload, _ALL, lambda slots: _fold(slots, op),
            shared=True,
        )

    # -- point to point ----------------------------------------------------

    def send(self, value: Any, dest: int, tag: int = 0) -> None:
        """Send ``value`` to rank ``dest`` (asynchronous, buffered)."""
        self._check_rank("dest", dest)
        if tag < 0:
            raise CommunicatorError("tags must be non-negative")
        self._once("send", lambda: self._post(dest, tag, _copy_payload(value)))

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, return_status: bool = False
    ) -> Any:
        """Receive a message; blocks until a matching one arrives (the
        bulk engine parks the rank instead).

        With ``return_status=True`` returns ``(value, source, tag)``.
        """
        self._check_match(source, tag)
        src, tg, payload = self._once("recv", lambda: self._match(source, tag, True))
        if return_status:
            return payload, src, tg
        return payload

    def sendrecv(
        self, value: Any, dest: int, source: int = ANY_SOURCE, tag: int = 0
    ) -> Any:
        """Combined send and receive (deadlock-free shift pattern)."""
        self.send(value, dest, tag)
        return self.recv(source, tag)

    def isend(self, value: Any, dest: int, tag: int = 0) -> "Request":
        """Non-blocking send.  Buffered, so it completes immediately;
        the returned request exists for MPI-style symmetry."""
        self.send(value, dest, tag)
        return Request(self, ANY_SOURCE, ANY_TAG, done=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> "Request":
        """Non-blocking receive; complete it with ``wait()`` or ``test()``."""
        self._check_match(source, tag)
        return Request(self, source, tag)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is already waiting (not consumed).

        Under the bulk engine the probe is an op: its outcome is logged
        and replayed.  Spinning on ``iprobe`` without an intervening
        blocking op never yields there — use ``recv`` to wait.
        """
        self._check_match(source, tag)
        return self._once("iprobe", lambda: self._probe(source, tag))

    # -- communicator management -------------------------------------------

    def split(self, color: int | None, key: int = 0) -> "Comm | None":
        """Partition the communicator by ``color``; order subgroups by ``key``.

        Ranks passing ``color=None`` receive :data:`COMM_NULL`.  New ranks are
        assigned by ascending ``(key, old_rank)``; colors and keys must be
        integers.  The grouping is computed **once per world** on the
        in-process engines (:func:`group_split`, shared by every rank), so
        a split costs O(n log n) total rather than per rank — the
        difference between a few hundred and a few hundred thousand
        simulated ranks.
        """
        plan, groups = self._exchange(
            "split", (color, key), _as_is, _ALL, self._split_groups, shared=True
        )
        if plan.error is not None:
            # Raise a per-rank wrapper: re-raising the one shared instance
            # from every rank thread would race on its __traceback__.
            raise CommunicatorError(f"split failed: {plan.error!r}") from plan.error
        child = plan.child_of[self._rank]
        if child < 0:
            return COMM_NULL
        return type(self)(groups[child], plan.rank_in_child[self._rank])

    def dup(self) -> "Comm":
        """Duplicate the communicator (fresh synchronization context)."""
        comm = self.split(color=0, key=self._rank)
        assert comm is not None
        return comm

    def subworld(self, size: int) -> "Comm | None":
        """Communicator over ranks ``[0, size)``; :data:`COMM_NULL` elsewhere.

        Sub-world sizing for partitioned readers: a job that wrote a
        checkpoint with ``n`` tasks re-enters the multifile with its
        first ``m`` ranks as the analysis world (``paropen(...,
        partitioned=True)`` on the returned communicator), while the
        remaining ranks skip the read entirely.  Collective over the
        parent communicator.

        Raises :class:`CommunicatorError` unless ``1 <= size <=
        self.size``.

        Example::

            sub = comm.subworld(32)
            if sub is not COMM_NULL:
                f = sion.paropen(path, "r", sub, partitioned=True)
        """
        if not 1 <= size <= self.size:
            raise CommunicatorError(
                f"subworld size {size} out of range for {self.size} ranks"
            )
        return self.split(color=0 if self._rank < size else None, key=self._rank)

    def exec_once(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` exactly once per rank program; returns its result.

        On the thread and process engines a rank body executes exactly
        once, so this simply calls ``fn`` — on the process engine *in the
        rank's own process*: in-memory side effects stay in the child and
        only external effects (files, backend writes) are visible after
        the run (see :mod:`repro.simmpi.proc`).  Under the bulk engine
        (:mod:`repro.simmpi.bulk`) rank bodies may be *re-executed* when a
        collective unblocks, and there ``exec_once`` memoizes: the first
        execution's result is returned on every replay and ``fn`` never
        runs again.  ``fn`` must not perform communication — a skipped
        replay would desynchronize the op log (checked there).  Wrap
        non-idempotent side effects (truncating file creates, appends,
        counters) in ``exec_once`` to write portable SPMD programs.
        """
        return self._once("exec_once", fn)

    def abort(self) -> None:
        """Abort the communicator group, waking all blocked ranks with errors.

        Bulk and process worlds share one abort domain: unlike the thread
        engine, aborting a subgroup there tears down the whole world — the
        same net effect as a rank failure under ``run_spmd``.
        """
        self._abort()


class Request:
    """Handle for a pending non-blocking operation."""

    def __init__(self, comm: Comm, source: int, tag: int, done: bool = False) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = done
        self._value: Any = None

    @property
    def completed(self) -> bool:
        """True once the operation has finished (after wait/test success)."""
        return self._done

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check: ``(done, value_or_None)``.

        Under the bulk engine each call is an op whose outcome is logged;
        see :meth:`Comm.iprobe` for the busy-wait caveat.
        """
        if not self._done:
            comm = self._comm
            hit = comm._once(
                "tryrecv", lambda: comm._match(self._source, self._tag, False)
            )
            if hit is None:
                return False, None
            self._value = hit[2]
            self._done = True
        return True, self._value

    def wait(self) -> Any:
        """Block until completion; returns the received value (sends: None)."""
        if not self._done:
            self._value = self._comm.recv(self._source, self._tag)
            self._done = True
        return self._value


# --------------------------------------------------------------------------
# Thread transport: one OS thread per rank, slots + ``threading.Barrier``.


class _Mailbox:
    """Per-destination message store supporting wildcard matching."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._messages: list[tuple[int, int, Any]] = []
        self._aborted = False

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._cond:
            self._messages.append((source, tag, payload))
            self._cond.notify_all()

    def get(
        self, source: int, tag: int, timeout: float | None, block: bool
    ) -> tuple[int, int, Any] | None:
        """Consume the first matching message; without ``block``, ``None``
        when nothing matches."""
        with self._cond:
            while True:
                if self._aborted:
                    raise CommAbortedError("communicator aborted while waiting for a message")
                idx = _find_match(self._messages, source, tag)
                if idx is not None:
                    return self._messages.pop(idx)
                if not block:
                    return None
                if not self._cond.wait(timeout=timeout):
                    raise SimMPIError(
                        f"recv timed out waiting for source={source} tag={tag}"
                    )

    def probe(self, source: int, tag: int) -> bool:
        with self._cond:
            return _find_match(self._messages, source, tag) is not None

    def abort(self) -> None:
        with self._cond:
            self._aborted = True
            self._cond.notify_all()


class _Backbone:
    """Shared state of one communicator group."""

    def __init__(self, size: int, timeout: float | None = None) -> None:
        if size < 1:
            raise CommunicatorError(f"communicator size must be >= 1, got {size}")
        self.size = size
        self.timeout = timeout
        self.barrier = threading.Barrier(size)
        self.lock = threading.Lock()
        self.slots: list[Any] = [None] * size
        self.opnames: list[str | None] = [None] * size
        self.mailboxes = [_Mailbox() for _ in range(size)]
        #: The current split's ``(plan, children)``, built by whichever
        #: rank reads the slots first and dropped with the slots.
        self.split: tuple[SplitPlan, list[_Backbone]] | None = None
        self.children: list[_Backbone] = []
        self._aborted = False

    def abort(self) -> None:
        """Break all synchronization points so blocked ranks raise."""
        self._aborted = True
        self.barrier.abort()
        for box in self.mailboxes:
            box.abort()
        for child in self.children:
            child.abort()

    def wait_barrier(self) -> None:
        if self._aborted:
            raise CommAbortedError("communicator aborted")
        try:
            self.barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError as exc:
            raise CommAbortedError(
                "collective aborted (another rank failed or barrier timed out)"
            ) from exc


class ThreadComm(Comm):
    """One rank's communicator handle on the thread-per-rank engine."""

    def __init__(self, backbone: _Backbone, rank: int) -> None:
        if not 0 <= rank < backbone.size:
            raise CommunicatorError(
                f"rank {rank} out of range for size {backbone.size}"
            )
        self._group = backbone
        self._rank = rank

    def _exchange(
        self,
        opname: str,
        value: Any,
        frame: Callable[[Any], Any],
        needs: int,
        read: Callable[[list[Any]], Any],
        shared: bool = False,
    ) -> Any:
        """Deposit/barrier/read primitive behind every collective.

        Every rank deposits, then reads between the two barriers while the
        slot array is stable (``needs`` is moot: everyone waits for
        everyone, and every rank computes its own result).  Collectives
        that only need one element (bcast, scatter) or nothing at all
        (barrier) pass a cheap reader so a size-``n`` world does O(n)
        total work per collective instead of O(n^2).  A reader that
        raises aborts the group first: it runs between barriers, where
        the exception would otherwise strand the other ranks until the
        timeout.
        """
        bb = self._group
        deposit = frame(value)
        with bb.lock:
            bb.slots[self._rank] = deposit
            bb.opnames[self._rank] = opname
        bb.wait_barrier()
        names = {n for n in bb.opnames if n is not None}
        if len(names) > 1:
            bb.abort()
            raise CollectiveMismatchError(
                f"ranks disagree on collective operation: {sorted(names)}"
            )
        try:
            result = read(bb.slots)
        except BaseException:
            bb.abort()
            raise
        bb.wait_barrier()
        if self._rank == 0:
            with bb.lock:
                bb.slots = [None] * bb.size
                bb.opnames = [None] * bb.size
                bb.split = None
        bb.wait_barrier()
        return result

    def _split_groups(self, slots: list[Any]) -> tuple[SplitPlan, list[_Backbone]]:
        bb = self._group
        with bb.lock:
            if bb.split is None:
                plan = group_split(slots)
                children = [_Backbone(len(m), bb.timeout) for m in plan.members]
                bb.children.extend(children)
                bb.split = (plan, children)
            return bb.split

    def _post(self, dest: int, tag: int, payload: Any) -> None:
        self._group.mailboxes[dest].put(self._rank, tag, payload)

    def _match(self, source: int, tag: int, block: bool) -> tuple[int, int, Any] | None:
        bb = self._group
        return bb.mailboxes[self._rank].get(source, tag, bb.timeout, block)

    def _probe(self, source: int, tag: int) -> bool:
        return self._group.mailboxes[self._rank].probe(source, tag)

    def _abort(self) -> None:
        self._group.abort()


def make_world(size: int, timeout: float | None = None) -> list[ThreadComm]:
    """Create a world communicator and return each rank's handle."""
    bb = _Backbone(size, timeout=timeout)
    return [ThreadComm(bb, r) for r in range(size)]
