"""Deterministic fault injection at the storage boundary.

Checkpoint I/O at scale fails in ways unit tests never exercise: a task
dies mid-write, an aggregated vectored write lands half of its
fragments, the collective close never persists metablock 2, a recovery
header is scribbled over.  :class:`FaultInjectingBackend` reproduces all
of these **deterministically** by wrapping any other backend (in the
spirit of :class:`~repro.backends.instrument.CountingBackend`) and
firing the faults scripted in a :class:`FaultPlan` at exact, replayable
trigger points:

* :meth:`FaultPlan.kill_rank` — rank ``k`` dies once its cumulative data
  traffic would exceed ``after_bytes``: the crossing call raises
  :class:`~repro.errors.FaultInjectedError` *without* moving bytes.
* :meth:`FaultPlan.tear_scatter` — a targeted ``scatter_write`` persists
  only its first ``keep_fragments`` fragments, then raises: a torn
  vectored write, the paper's motivating partial-checkpoint failure.
* :meth:`FaultPlan.drop_metablock2` — the ``pwrite`` carrying a
  metablock-2 payload for the targeted path is silently swallowed, as is
  every later write and flush on that handle: the writer "succeeds" but the file
  is left exactly as a crash-before-close leaves it (no exception — the
  recovery path, not the failure path, is under test).
* :meth:`FaultPlan.corrupt_chunk_header` — the shadow header of one
  ``(ltask, block)`` chunk is garbled on its way to the store, so the
  recovery scan finds a torn chain.

Triggers are keyed on *rank*, *path*, and *payload content* — never on
wall clock, call interleaving, or engine scheduling — so the same plan
fires identically under the ``threads``, ``bulk``, and ``proc`` SPMD
engines and under the bulk engine's memoized replay (a failed call is
not memoized; its re-execution re-raises the same fault).  Rank
attribution is explicit: an SPMD program calls :meth:`for_rank` with its
communicator rank and uses the returned view, which shares the plan
state with every sibling view.

The wrapper deliberately understands the SION wire magics
(:data:`~repro.sion.constants.MAGIC_MB2`,
:data:`~repro.sion.constants.MAGIC_SHADOW`) — it is a fault library
*for* the SION layer, and content-keyed triggers are what make the
plans independent of which open path (direct, collective, serial,
partitioned) produced the traffic.  ``repro.sion.constants`` imports
nothing, so no layering cycle arises.

The whole wrapper pickles whenever the inner backend does
(:class:`~repro.backends.localfs.LocalBackend` does;
:class:`~repro.backends.simfs_backend.SimBackend` refuses by design), so
plans run unchanged under the process engine.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import Sequence

from repro.backends.base import Backend, ForwardingBackend, RawFile
from repro.buffers import BufferLike, as_view
from repro.errors import BackendUsageError, FaultInjectedError
from repro.sion.constants import MAGIC_MB2, MAGIC_SHADOW

#: Fault kinds a :class:`FaultSpec` can carry.
KILL_RANK = "kill_rank"
TEAR_SCATTER = "tear_scatter"
DROP_METABLOCK2 = "drop_metablock2"
CORRUPT_CHUNK_HEADER = "corrupt_chunk_header"

#: Leading fields of a shadow header: magic, ltask, block (see
#: ``repro.sion.format._SHADOW``; only the identifying prefix matters here).
_SHADOW_HEAD = struct.Struct("<8sII")


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault (see the :class:`FaultPlan` constructors).

    ``kind`` selects the trigger; the remaining fields are meaningful per
    kind: ``rank``/``after_bytes`` for :data:`KILL_RANK`,
    ``path``/``keep_fragments``/``rank`` for :data:`TEAR_SCATTER`,
    ``path`` for :data:`DROP_METABLOCK2`, and ``path``/``ltask``/``block``
    for :data:`CORRUPT_CHUNK_HEADER`.
    """

    kind: str
    rank: int | None = None
    after_bytes: int = 0
    path: str | None = None
    keep_fragments: int = 0
    ltask: int | None = None
    block: int | None = None


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, chainable script of faults.

    Each constructor returns a *new* plan with the fault appended, so
    plans compose without mutation::

        plan = (FaultPlan()
                .kill_rank(3, after_bytes=4096)
                .drop_metablock2(path="/scratch/out.sion"))
        backend = FaultInjectingBackend(SimBackend(fs), plan)

    An empty plan injects nothing — a :class:`FaultInjectingBackend`
    over it is a transparent pass-through.
    """

    faults: tuple[FaultSpec, ...] = ()

    def kill_rank(self, rank: int, after_bytes: int = 0) -> "FaultPlan":
        """Kill rank ``rank`` once its data traffic would exceed ``after_bytes``.

        "Traffic" is every payload byte moved through the rank's raw
        handles, reads and writes alike; the call that would cross the
        budget raises :class:`~repro.errors.FaultInjectedError` without
        moving anything (``after_bytes=0`` kills the first data call).
        Requires the program to attribute its handles via
        :meth:`FaultInjectingBackend.for_rank`.  In collective mode only
        collector ranks perform physical I/O, so target a collector
        (e.g. rank 0) for the fault to fire.
        """
        if rank < 0:
            raise BackendUsageError(f"rank must be non-negative: {rank}")
        if after_bytes < 0:
            raise BackendUsageError(f"after_bytes must be non-negative: {after_bytes}")
        return FaultPlan(
            self.faults
            + (FaultSpec(kind=KILL_RANK, rank=rank, after_bytes=after_bytes),)
        )

    def tear_scatter(
        self, path: str, keep_fragments: int = 0, rank: int | None = None
    ) -> "FaultPlan":
        """Tear a ``scatter_write`` against ``path`` mid-iovec.

        The first ``keep_fragments`` fragments are persisted, then the
        call raises — the on-store state is a genuinely torn vectored
        write.  ``rank`` (optional) restricts the trigger to one rank's
        handles; otherwise the first matching call tears, whichever rank
        issues it.
        """
        if keep_fragments < 0:
            raise BackendUsageError(
                f"keep_fragments must be non-negative: {keep_fragments}"
            )
        return FaultPlan(
            self.faults
            + (
                FaultSpec(
                    kind=TEAR_SCATTER,
                    path=path,
                    keep_fragments=keep_fragments,
                    rank=rank,
                ),
            )
        )

    def drop_metablock2(self, path: str) -> "FaultPlan":
        """Silently drop metablock-2 persistence for ``path``.

        The ``pwrite`` whose payload opens with the metablock-2 magic is
        swallowed, along with every later write and flush on that
        handle — modeling a writer that died during the close
        sequence after its barrier partners already believed it done.
        No exception is raised; the damage is only visible when the file
        is next opened (and is exactly what ``sionrecover`` repairs).
        """
        return FaultPlan(
            self.faults + (FaultSpec(kind=DROP_METABLOCK2, path=path),)
        )

    def corrupt_chunk_header(
        self, path: str, ltask: int, block: int
    ) -> "FaultPlan":
        """Garble the shadow header of chunk ``(ltask, block)`` in ``path``.

        The header is corrupted *in flight* (its magic is inverted), so
        it lands on the store undecodable: the recovery scan of that
        task's chunk chain stops at the damaged block, as it would after
        real corruption.  Payload bytes of the chunk are untouched.
        """
        return FaultPlan(
            self.faults
            + (
                FaultSpec(
                    kind=CORRUPT_CHUNK_HEADER, path=path, ltask=ltask, block=block
                ),
            )
        )

    def of_kind(self, kind: str) -> tuple[FaultSpec, ...]:
        """The plan's faults of one kind, in script order."""
        return tuple(f for f in self.faults if f.kind == kind)


class _FaultState:
    """Mutable trigger state shared by every view of one backend.

    Holds the per-rank cumulative traffic counters behind
    :meth:`FaultPlan.kill_rank`.  Pickles without its lock (the process
    engine serializes the backend before any traffic, so counters start
    at zero in every child — and kill budgets are rank-local, so a
    child's own counter is the authoritative one anyway).
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.rank_bytes: dict[int, int] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.lock = threading.Lock()


class FaultingRawFile(RawFile):
    """Raw-file decorator firing the owner plan's faults; else forwards.

    Structure mirrors :class:`~repro.backends.instrument.CountingRawFile`:
    every protocol method forwards to the inner handle directly, so inner
    fan-out (a ``scatter_write`` decomposing into contiguous runs) never
    re-enters the trigger logic — faults key on boundary crossings by the
    SION layer, exactly like the instrumentation counts.
    """

    def __init__(self, inner: RawFile, owner: "FaultInjectingBackend", path: str):
        """Wrap ``inner`` (opened at ``path``) for ``owner``'s plan."""
        self._inner = inner
        self._owner = owner
        self._path = path
        self._swallowing = False

    # -- trigger helpers ----------------------------------------------------

    def _charge(self, nbytes: int) -> None:
        """Account ``nbytes`` of traffic against this rank's kill budget.

        Raises :class:`~repro.errors.FaultInjectedError` — before the
        inner call moves anything — when the charge would cross a
        :meth:`~FaultPlan.kill_rank` budget for this view's rank.
        """
        rank = self._owner.rank
        if rank is None:
            return
        kills = [
            f
            for f in self._owner.plan.of_kind(KILL_RANK)
            if f.rank == rank
        ]
        if not kills:
            return
        state = self._owner.state
        with state.lock:
            used = state.rank_bytes.get(rank, 0)
            for spec in kills:
                if used + nbytes > spec.after_bytes:
                    raise FaultInjectedError(
                        f"rank {rank} killed by fault plan: {used + nbytes} "
                        f"bytes of traffic would exceed the {spec.after_bytes}"
                        f"-byte budget ({self._path})"
                    )
            state.rank_bytes[rank] = used + nbytes

    def _matches_rank(self, spec: FaultSpec) -> bool:
        """True when ``spec`` targets this view's rank (or any rank)."""
        return spec.rank is None or spec.rank == self._owner.rank

    def _corrupted(self, data: BufferLike) -> BufferLike:
        """The payload with its shadow header garbled, if targeted."""
        specs = self._owner.plan.of_kind(CORRUPT_CHUNK_HEADER)
        if not specs:
            return data
        view = as_view(data)
        if view.nbytes < _SHADOW_HEAD.size:
            return data
        magic, ltask, block = _SHADOW_HEAD.unpack_from(view, 0)
        if magic != MAGIC_SHADOW:
            return data
        for spec in specs:
            if spec.path == self._path and spec.ltask == ltask and spec.block == block:
                # Invert the magic: ShadowHeader.decode returns None, so
                # the chain scan stops here — a torn chain, not a crash.
                garbled = bytearray(view.tobytes())
                for i in range(len(magic)):
                    garbled[i] ^= 0xFF
                return bytes(garbled)
        return data

    def _is_metablock2(self, data: BufferLike) -> bool:
        """True when ``data`` opens with the metablock-2 magic."""
        view = as_view(data)
        if view.nbytes < len(MAGIC_MB2):
            return False
        return bytes(view[: len(MAGIC_MB2)]) == MAGIC_MB2

    def _should_drop(self, data: BufferLike) -> bool:
        """True when this write starts (or continues) an mb2 blackout."""
        if self._swallowing:
            return True
        for spec in self._owner.plan.of_kind(DROP_METABLOCK2):
            if spec.path == self._path and self._is_metablock2(data):
                self._swallowing = True
                return True
        return False

    # -- the protocol -------------------------------------------------------

    def pwrite(self, offset: int, data: BufferLike) -> int:
        """Forward ``pwrite``; drop-mb2, kill and corrupt-header fire here."""
        if self._should_drop(data):
            return as_view(data).nbytes
        self._charge(as_view(data).nbytes)
        return self._inner.pwrite(offset, self._corrupted(data))

    def pread(self, offset: int, n: int) -> bytes:
        """Forward ``pread``, charging ``n`` to the kill budget first."""
        self._charge(n)
        return self._inner.pread(offset, n)

    def scatter_write(self, fragments) -> int:
        """Forward ``scatter_write``; every write-side trigger fires here."""
        frags = list(fragments)
        if self._swallowing:
            return sum(as_view(d).nbytes for _, d in frags)
        self._charge(sum(as_view(d).nbytes for _, d in frags))
        for spec in self._owner.plan.of_kind(TEAR_SCATTER):
            if spec.path == self._path and self._matches_rank(spec):
                kept = frags[: spec.keep_fragments]
                if kept:
                    self._inner.scatter_write(
                        [(off, self._corrupted(d)) for off, d in kept]
                    )
                raise FaultInjectedError(
                    f"scatter_write against {self._path} torn after "
                    f"{len(kept)} of {len(frags)} fragments"
                )
        return self._inner.scatter_write(
            [(off, self._corrupted(d)) for off, d in frags]
        )

    def gather_read(self, requests: Sequence[tuple[int, int]]) -> list[bytes]:
        """Forward ``gather_read``, charging the request total first."""
        self._charge(sum(n for _, n in requests))
        return self._inner.gather_read(requests)

    def flush(self) -> None:
        """Forward ``flush`` (swallowed during an mb2 blackout)."""
        if not self._swallowing:
            self._inner.flush()

    def close(self) -> None:
        """Forward ``close`` (always reaches the store)."""
        self._inner.close()


class FaultInjectingBackend(ForwardingBackend):
    """Backend decorator executing a :class:`FaultPlan` deterministically.

    All views created by :meth:`for_rank` share the same inner backend,
    plan, and trigger state; handles opened through an *unattributed*
    view (``rank=None``) never fire rank-keyed kills but still fire the
    path- and content-keyed faults.
    """

    def __init__(
        self,
        inner: Backend,
        plan: FaultPlan | None = None,
        *,
        rank: int | None = None,
        state: _FaultState | None = None,
    ) -> None:
        """Wrap ``inner`` with ``plan`` (``None`` = the empty plan)."""
        super().__init__(inner)
        self.plan = plan if plan is not None else FaultPlan()
        self.rank = rank
        self.state = state if state is not None else _FaultState()

    def for_rank(self, rank: int) -> "FaultInjectingBackend":
        """A view of this backend attributing its handles to ``rank``.

        SPMD programs call ``backend.for_rank(comm.rank)`` and open
        through the view; rank-keyed faults then fire on the right rank
        under every engine, without the engines knowing about faults.
        """
        return FaultInjectingBackend(
            self.inner, self.plan, rank=rank, state=self.state
        )

    def open(self, path: str, mode: str) -> FaultingRawFile:
        """Open ``path`` on the inner backend and arm the plan's triggers."""
        return FaultingRawFile(self.inner.open(path, mode), self, path)
