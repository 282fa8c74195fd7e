"""Instrumented backend wrapper: counts calls, fragments, and copies.

:class:`CountingBackend` wraps any other backend and records, at the
``RawFile`` protocol boundary, exactly what the SION layer asked the
store to do:

* **backend calls** per method (``pwrite``, ``scatter_write``,
  ``gather_read``, …) — proving that a chunk-spanning ``fwrite`` of N
  fragments crosses the boundary *once* (one ``scatter_write``), not N
  times;
* **fragments** — individual payload buffers carried by those calls;
* **copies** — fragments whose memory is *not* part of a tracked source
  payload.  :meth:`CountingBackend.track_source` registers the
  application buffer about to be written; every arriving fragment is
  attributed by walking ``memoryview(...).obj`` back to its exporting
  object (slices, casts, and re-wraps all preserve it), so a fragment
  that still lives inside the caller's buffer counts as zero-copy and
  anything that was materialized on the way down counts as a copy.

The wrapper stores only scalar telemetry — it never retains views of the
payloads, so upstream ``bytearray`` buffers remain resizable.
"""

from __future__ import annotations

import threading
import uuid
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.backends.base import Backend, ForwardingBackend, RawFile
from repro.buffers import BufferLike

#: RawFile methods that deliver payload bytes to the store.
DATA_WRITE_METHODS = ("pwrite", "scatter_write")

#: RawFile methods that fetch payload bytes from the store.
DATA_READ_METHODS = ("pread", "gather_read")

#: Every live :class:`IOStats` in this process, by token.  The process
#: SPMD engine snapshots this registry around a rank body and ships the
#: counter *deltas* back to the parent, where :func:`apply_stats_deltas`
#: folds them into the parent's objects — so ``CountingBackend``
#: telemetry aggregates across processes the same way it does across
#: threads.  Weak values: registration must not keep stats (and the
#: backends holding them) alive.
_LIVE_STATS: "weakref.WeakValueDictionary[str, IOStats]" = (
    weakref.WeakValueDictionary()
)

#: Scalar counter fields carried by cross-process deltas.
_COUNTER_FIELDS = (
    "bytes_written",
    "bytes_read",
    "fragments_written",
    "fragments_read",
    "tracked_fragments",
    "copied_fragments",
)


@dataclass
class IOStats:
    """Telemetry shared by every handle of one :class:`CountingBackend`.

    Mutations take a lock: the parallel scenarios drive concurrent task
    threads into one shared stats object, and an unlocked read-modify-
    write would lose updates — turning the "deterministic counts" promise
    into a silent undercount.
    """

    calls: dict[str, int] = field(default_factory=dict)
    bytes_written: int = 0
    bytes_read: int = 0
    fragments_written: int = 0
    fragments_read: int = 0
    tracked_fragments: int = 0
    copied_fragments: int = 0
    #: Stable cross-process identity: a child's counter deltas find the
    #: parent's object by this token after the run joins.
    token: str = field(default_factory=lambda: uuid.uuid4().hex)
    _sources: set[int] = field(default_factory=set)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        _LIVE_STATS[self.token] = self

    def __getstate__(self) -> dict:
        """Picklable state: everything but the lock.

        ``_sources`` travels along but is only meaningful in-process
        (it holds ``id()`` values); cross-process zero-copy attribution
        is per-child and merged via the counter deltas.
        """
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        # Register only if the token is not already live: when a clone is
        # unpickled in the *same* process (or a spawn child that already
        # holds the original), the existing object stays authoritative —
        # deltas must merge into it, not into the latest copy.
        _LIVE_STATS.setdefault(self.token, self)

    def raw_state(self) -> dict:
        """Copy of the mergeable counters (atomic)."""
        with self._lock:
            out: dict = {"calls": dict(self.calls)}
            for name in _COUNTER_FIELDS:
                out[name] = getattr(self, name)
            return out

    def merge_raw(self, delta: dict) -> None:
        """Fold another process's counter delta into this object."""
        with self._lock:
            for method, n in delta.get("calls", {}).items():
                self.calls[method] = self.calls.get(method, 0) + n
            for name in _COUNTER_FIELDS:
                setattr(self, name, getattr(self, name) + delta.get(name, 0))

    def count(self, method: str, n: int = 1) -> None:
        with self._lock:
            self.calls[method] = self.calls.get(method, 0) + n

    def count_read_bytes(self, n: int, requests: int = 1) -> None:
        with self._lock:
            self.bytes_read += n
            self.fragments_read += requests

    @property
    def data_write_calls(self) -> int:
        """Boundary crossings that carried payload toward the store."""
        return sum(self.calls.get(m, 0) for m in DATA_WRITE_METHODS)

    @property
    def data_read_calls(self) -> int:
        """Boundary crossings that fetched payload from the store."""
        return sum(self.calls.get(m, 0) for m in DATA_READ_METHODS)

    @property
    def opens(self) -> int:
        """Handles opened against the backend (collective mode: per
        collector plus the metadata masters, not per task)."""
        return self.calls.get("open", 0)

    def track_source(self, payload: object) -> None:
        """Register an application buffer; fragments are attributed to it.

        Tracks the *base exporter*: pass the ``bytes``/``bytearray``/array
        object itself (or a memoryview of it — the underlying exporter is
        registered either way).
        """
        base = payload.obj if isinstance(payload, memoryview) else payload
        with self._lock:
            self._sources.add(id(base))

    def clear_sources(self) -> None:
        with self._lock:
            self._sources.clear()

    def note_payloads(self, bufs: Iterable[BufferLike]) -> int:
        """Record the fragments of one write-side call; returns their size."""
        total = 0
        fragments = tracked = copied = 0
        with self._lock:
            for buf in bufs:
                view = buf if isinstance(buf, memoryview) else memoryview(buf)
                total += view.nbytes
                fragments += 1
                if self._sources:
                    tracked += 1
                    if id(view.obj) not in self._sources:
                        copied += 1
                if view is not buf:
                    view.release()
            self.fragments_written += fragments
            self.tracked_fragments += tracked
            self.copied_fragments += copied
            self.bytes_written += total
        return total

    def snapshot(self) -> dict[str, int]:
        """Plain-dict summary (for metrics and assertions); atomic.

        ``seeks`` is 0 by construction — the protocol has no file
        pointer — and stays in the summary for the metrics built on it.
        """
        with self._lock:
            return {
                "data_write_calls": self.data_write_calls,
                "data_read_calls": self.data_read_calls,
                "seeks": 0,
                "opens": self.opens,
                "fragments_written": self.fragments_written,
                "fragments_read": self.fragments_read,
                "tracked_fragments": self.tracked_fragments,
                "copied_fragments": self.copied_fragments,
                "bytes_written": self.bytes_written,
                "bytes_read": self.bytes_read,
            }


def snapshot_live_stats() -> dict[str, dict]:
    """Raw counter state of every live :class:`IOStats`, by token."""
    return {token: stats.raw_state() for token, stats in list(_LIVE_STATS.items())}


def stats_deltas(
    before: dict[str, dict], after: dict[str, dict]
) -> list[tuple[str, dict]]:
    """Non-zero per-token counter deltas between two snapshots.

    Tokens present only in ``after`` (stats created inside the child)
    contribute their full state; tokens that vanished are dropped — the
    parent has no object to merge them into anyway.
    """
    out: list[tuple[str, dict]] = []
    for token, state in after.items():
        base = before.get(token, {})
        base_calls = base.get("calls", {})
        delta: dict = {
            "calls": {
                m: n - base_calls.get(m, 0)
                for m, n in state["calls"].items()
                if n - base_calls.get(m, 0)
            }
        }
        for name in _COUNTER_FIELDS:
            d = state[name] - base.get(name, 0)
            if d:
                delta[name] = d
        if delta["calls"] or len(delta) > 1:
            out.append((token, delta))
    return out


def apply_stats_deltas(deltas: Iterable[tuple[str, dict]]) -> None:
    """Merge per-token deltas into this process's live stats objects.

    Deltas whose token has no live counterpart here are ignored: the
    child created (and discarded) that backend wrapper itself.
    """
    for token, delta in deltas:
        stats = _LIVE_STATS.get(token)
        if stats is not None:
            stats.merge_raw(delta)


class CountingRawFile(RawFile):
    """Counts every protocol call, then delegates to the wrapped handle.

    Every method forwards to the *inner* file directly, so an inner
    ``scatter_write`` that fans out into contiguous runs does not
    re-enter this wrapper: the counts measure boundary crossings by the
    SION layer, not backend internals.
    """

    def __init__(self, inner: RawFile, stats: IOStats) -> None:
        self._inner = inner
        self.stats = stats

    def pwrite(self, offset: int, data: BufferLike) -> int:
        self.stats.count("pwrite")
        self.stats.note_payloads([data])
        return self._inner.pwrite(offset, data)

    def pread(self, offset: int, n: int) -> bytes:
        self.stats.count("pread")
        out = self._inner.pread(offset, n)
        self.stats.count_read_bytes(len(out))
        return out

    def scatter_write(self, fragments) -> int:
        frags = list(fragments)
        self.stats.count("scatter_write")
        self.stats.note_payloads([d for _, d in frags])
        return self._inner.scatter_write(frags)

    def gather_read(self, requests: Sequence["tuple[int, int]"]) -> list[bytes]:
        self.stats.count("gather_read")
        out = self._inner.gather_read(requests)
        self.stats.count_read_bytes(sum(len(p) for p in out), requests=len(out))
        return out

    def flush(self) -> None:
        self.stats.count("flush")
        self._inner.flush()

    def close(self) -> None:
        self.stats.count("close")
        self._inner.close()


class CountingBackend(ForwardingBackend):
    """Backend decorator: all handles share one :class:`IOStats`."""

    def __init__(self, inner: Backend) -> None:
        super().__init__(inner)
        self.stats = IOStats()

    # Conveniences so scenarios talk to the backend only.

    def track_source(self, payload: object) -> None:
        self.stats.track_source(payload)

    def clear_sources(self) -> None:
        self.stats.clear_sources()

    def snapshot(self) -> dict[str, int]:
        return self.stats.snapshot()

    def open(self, path: str, mode: str) -> CountingRawFile:
        self.stats.count("open")
        return CountingRawFile(self.inner.open(path, mode), self.stats)
