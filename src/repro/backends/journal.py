"""One journal of the calls that cross the ``RawFile`` boundary.

:class:`Journal` wraps any backend and appends one :class:`Row` per
``open`` and per ``RawFile`` call — ``scatter_write``, ``gather_read``,
``flush`` and ``close``, so a ``pwrite`` / ``pread`` is recorded as the
one-fragment call it is: its sequence number, the rank that made it,
the path, the call, its per-fragment offsets and sizes and, for a
write, the payload.  A payload is kept by the data plane's one
rule (:func:`repro.buffers.keep`): a view of an immutable ``bytes`` is
kept as that view, anything else as one ``bytes`` copy, so the journal
never pins a mutable application buffer.  Three things are built on the
rows:

* **Counts.**  :class:`~repro.backends.instrument.CountingBackend` is a
  journal whose snapshot folds the rows into call, fragment and byte
  counts; its rows keep no payloads, since no count reads them.
  Whether a fragment still lived in a buffer registered with
  :meth:`Journal.track_source` is decided at call time and kept in the
  row.
* **One in-flight failure: rank *r* raises at its call *k*.**
  ``Journal(inner, fail_at=(r, k))`` makes rank ``r``'s ``k``-th call
  (opens included, counting from 0) raise
  :class:`~repro.errors.FaultInjectedError` without reaching the store.
  A failed call appends no row and does not advance the rank's count,
  so a re-execution (the bulk engine's replay) raises again, and so
  does every later call of that rank: it died there.  Ranks
  are attributed explicitly: an SPMD program opens through
  ``journal.for_rank(comm.rank)``, a view sharing the one row list.
* **Crash states.**  :func:`crash_states` cuts every state a crash can
  leave from one recorded cycle, with no re-run per point: each prefix
  of the rows, and each multi-fragment write torn at each fragment
  boundary, in list order and in offset order (the order in which
  :meth:`~repro.backends.base.RawFile.scatter_write` writes its sorted
  runs).  :func:`without_close_writes` is the torn close: the rows less
  each file's metablock-2 write and the metablock-1 patch after it.
  :func:`replay` applies a state to a fresh store.

A journal pickles whenever its inner backend does, without its rows:
under the process engine every rank process records its own, and
:func:`rows_since` / :func:`adopt` carry what a rank process appended
back to the parent's journal by token.
"""

from __future__ import annotations

import copy
import threading
import uuid
import weakref
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.backends.base import Backend, ForwardingBackend, RawFile
from repro.buffers import as_view, keep
from repro.errors import BackendUsageError, FaultInjectedError

#: The call that delivers payload bytes to the store.
WRITE_OPS = ("scatter_write",)

#: The call that fetches payload bytes from the store.
READ_OPS = ("gather_read",)


class Row(NamedTuple):
    """One call that crossed the boundary.

    ``offsets`` / ``sizes`` are per fragment (a read's sizes are what
    came back).  ``payload`` holds a write's bytes (none in a
    :class:`~repro.backends.instrument.CountingBackend`), ``mode`` an open's
    mode, and ``copied`` the write fragments that were not inside a
    tracked source (``None`` when no source was tracked).
    """

    seq: int
    rank: int | None
    path: str
    op: str
    offsets: tuple[int, ...] = ()
    sizes: tuple[int, ...] = ()
    payload: tuple = ()
    mode: str = ""
    copied: int | None = None


#: Every live row list in this process, by token (weak: registration must
#: not keep a journal alive).
_LIVE: "weakref.WeakValueDictionary[str, _Log]" = weakref.WeakValueDictionary()


class _Log:
    """The state every view of one journal shares."""

    def __init__(self, fail_at: "tuple[int, int] | None") -> None:
        self.rows: list[Row] = []
        self.lock = threading.Lock()
        self.token = uuid.uuid4().hex
        self.fail_at = fail_at
        self.ncalls: dict[int | None, int] = {}
        self.sources: set[int] = set()
        _LIVE[self.token] = self

    def __getstate__(self) -> dict:
        # Rows stay with the process that recorded them (a kept payload
        # may be a memoryview, which does not pickle); the call counts
        # travel, so a rank's call numbering goes on where it was.
        state = self.__dict__.copy()
        del state["lock"]
        state["rows"] = []
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.lock = threading.Lock()
        # An unpickled copy in the recording process must not replace it.
        _LIVE.setdefault(self.token, self)


class Journal(ForwardingBackend):
    """Backend decorator recording every call, optionally failing one."""

    #: Whether a write row keeps its payload (a crash state replays it).
    _keeps_payloads = True

    def __init__(self, inner: Backend, fail_at: "tuple[int, int] | None" = None) -> None:
        """Record calls to ``inner``; ``fail_at=(r, k)`` fails rank r's call k."""
        super().__init__(inner)
        if fail_at is not None:
            r, k = fail_at
            if r < 0 or k < 0:
                raise BackendUsageError(f"fail_at must be non-negative: {fail_at}")
            fail_at = (r, k)
        self.rank: int | None = None
        self.log = _Log(fail_at)

    @property
    def rows(self) -> list[Row]:
        """The shared row list, in call order."""
        return self.log.rows

    def for_rank(self, rank: int) -> "Journal":
        """A view attributing its calls to ``rank``, sharing the rows."""
        view = copy.copy(self)
        view.rank = rank
        return view

    def track_source(self, payload: object) -> None:
        """Register an application buffer write fragments are attributed to.

        Tracks the *base exporter*: a ``memoryview`` registers the object
        it views (slices, casts and re-wraps all preserve it).
        """
        base = payload.obj if isinstance(payload, memoryview) else payload
        with self.log.lock:
            self.log.sources.add(id(base))

    def clear_sources(self) -> None:
        """Forget every tracked source; later writes are unattributed."""
        with self.log.lock:
            self.log.sources.clear()

    def open(self, path: str, mode: str) -> "JournalRawFile":
        """Open ``path`` on the inner backend; one row, or the failure."""
        self._check(path)
        raw = JournalRawFile(self.inner.open(path, mode), self, path)
        self._append(path, "open", mode=mode)
        return raw

    # -- the two steps of every call --------------------------------------

    def _check(self, path: str) -> None:
        """Raise when this call is the one ``fail_at`` names."""
        log = self.log
        if log.fail_at is not None and log.fail_at == (
            self.rank, log.ncalls.get(self.rank, 0)
        ):
            raise FaultInjectedError(
                f"rank {self.rank} failed at its call {log.fail_at[1]} ({path})"
            )

    def _append(
        self,
        path: str,
        op: str,
        offsets: tuple[int, ...] = (),
        sizes: tuple[int, ...] = (),
        views: Sequence[memoryview] = (),
        mode: str = "",
    ) -> None:
        log = self.log
        with log.lock:
            copied = None
            if views and log.sources:
                copied = sum(id(v.obj) not in log.sources for v in views)
            log.ncalls[self.rank] = log.ncalls.get(self.rank, 0) + 1
            payload = tuple(map(keep, views)) if self._keeps_payloads else ()
            log.rows.append(
                Row(len(log.rows), self.rank, path, op, offsets, sizes, payload, mode, copied)
            )


class JournalRawFile(RawFile):
    """Records each call of one handle, then forwards it to the inner one.

    The four ``RawFile`` calls forward to the inner handle directly, so
    an inner ``scatter_write`` that fans out into contiguous runs is one
    row: the journal records the SION layer's boundary crossings, not
    backend internals.  A ``pwrite`` / ``pread`` is the one-fragment
    ``scatter_write`` / one-request ``gather_read`` it is defined as, and
    is recorded as that.
    """

    def __init__(self, inner: RawFile, journal: Journal, path: str) -> None:
        """Wrap ``inner``, opened at ``path`` through ``journal``."""
        self._inner = inner
        self._j = journal
        self._path = path

    def scatter_write(self, fragments) -> int:
        """Forward ``scatter_write``; one row keeps the whole fragment list."""
        self._j._check(self._path)
        frags = [(off, as_view(d)) for off, d in fragments]
        n = self._inner.scatter_write(frags)
        self._j._append(
            self._path, "scatter_write", tuple(off for off, _ in frags),
            tuple(v.nbytes for _, v in frags), [v for _, v in frags],
        )
        return n

    def gather_read(self, requests: Sequence["tuple[int, int]"]) -> "list[bytes | memoryview]":
        """Forward ``gather_read``; the row keeps the sizes that came back."""
        self._j._check(self._path)
        reqs = list(requests)
        out = self._inner.gather_read(reqs)
        self._j._append(
            self._path, "gather_read", tuple(off for off, _ in reqs),
            tuple(len(p) for p in out),
        )
        return out

    def flush(self) -> None:
        """Forward ``flush``."""
        self._j._check(self._path)
        self._inner.flush()
        self._j._append(self._path, "flush")

    def close(self) -> None:
        """Forward ``close``; a failing close still closes the inner handle.

        A close moves no bytes, so the handle of a rank that died is not
        left open behind the failure.
        """
        try:
            self._j._check(self._path)
        finally:
            self._inner.close()
        self._j._append(self._path, "close")


# ---------------------------------------------------------------------------
# Rows across processes.


def marks() -> dict[str, int]:
    """Rows recorded so far by every live journal of this process."""
    return {token: len(log.rows) for token, log in list(_LIVE.items())}


def rows_since(baseline: dict[str, int]) -> list[tuple[str, list[Row]]]:
    """Rows each live journal appended after ``baseline``, picklable."""
    out = []
    for token, log in list(_LIVE.items()):
        new = log.rows[baseline.get(token, 0):]
        if new:
            out.append((token, [
                r._replace(payload=tuple(bytes(p) for p in r.payload)) for r in new
            ]))
    return out


def adopt(shipped: Iterable[tuple[str, list[Row]]]) -> None:
    """Append shipped rows to this process's journal of the same token.

    Rows whose token has no live journal here are dropped: the rank
    process made (and discarded) that journal itself.
    """
    for token, rows in shipped:
        log = _LIVE.get(token)
        if log is None:
            continue
        with log.lock:
            for r in rows:
                log.ncalls[r.rank] = log.ncalls.get(r.rank, 0) + 1
                log.rows.append(r._replace(seq=len(log.rows)))


# ---------------------------------------------------------------------------
# Crash states.


def _torn(row: Row, keep: Sequence[int]) -> Row:
    """``row`` with only the fragments at list positions ``keep``."""
    keep = sorted(keep)
    return row._replace(
        offsets=tuple(row.offsets[i] for i in keep),
        sizes=tuple(row.sizes[i] for i in keep),
        payload=tuple(row.payload[i] for i in keep),
    )


def crash_states(rows: Sequence[Row]) -> Iterator[tuple[str, list[Row]]]:
    """Every ``(label, rows)`` state a crash during ``rows`` can leave.

    One state per prefix ``rows[:i]``, and one per tear of a
    multi-fragment write ``i`` after each of its first ``j`` fragments:
    in list order (``tear[i:list:j]``) and in offset order
    (``tear[i:offset:j]``).
    """
    rows = list(rows)
    for i in range(len(rows) + 1):
        yield f"prefix[{i}]", rows[:i]
    for i, row in enumerate(rows):
        n = len(row.sizes)
        if row.op not in WRITE_OPS or n < 2:
            continue
        listed = list(range(n))
        by_offset = sorted(listed, key=row.offsets.__getitem__)
        for name, order in (("list", listed), ("offset", by_offset)):
            for j in range(1, n):
                yield f"tear[{i}:{name}:{j}]", rows[:i] + [_torn(row, order[:j])]


def without_close_writes(rows: Sequence[Row]) -> list[Row]:
    """``rows`` less each file's metablock-2 write and the patch after it.

    The state of a set whose close sequence died after the data was in:
    the one-fragment write opening with the metablock-2 magic, and the
    next write on that path by the same rank (the metablock-1 offset
    patch).
    """
    from repro.sion.constants import MAGIC_MB2  # the package imports backends

    out: list[Row] = []
    closing: set[tuple[str, int | None]] = set()
    for row in rows:
        if row.op in WRITE_OPS:
            key = (row.path, row.rank)
            if key in closing:
                closing.discard(key)
                continue
            if len(row.sizes) == 1 and bytes(row.payload[0][: len(MAGIC_MB2)]) == MAGIC_MB2:
                closing.add(key)
                continue
        out.append(row)
    return out


def replay(rows: Iterable[Row], backend: Backend) -> None:
    """Apply the writes of ``rows`` to ``backend``, in order.

    An open with ``w`` in its mode creates (truncates) its file, as it
    did when recorded; reads, flushes and closes change nothing.
    """
    handles: dict[str, RawFile] = {}
    try:
        for row in rows:
            if row.op == "open" and "w" in row.mode:
                old = handles.pop(row.path, None)
                if old is not None:
                    old.close()
                handles[row.path] = backend.open(row.path, row.mode)
            elif row.op in WRITE_OPS:
                raw = handles.get(row.path)
                if raw is None:
                    raw = handles[row.path] = backend.open(row.path, "r+b")
                raw.scatter_write(zip(row.offsets, row.payload))
    finally:
        for raw in handles.values():
            raw.close()
