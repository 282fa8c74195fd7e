"""Harness-side tracing: a span recorder and traced shims around library calls.

Spans are recorded from the benchmark's own files, around the calls into
each layer (``run_spmd``, the parallel handle's calls inside the rank body,
``recover_multifile``, gateway calls, every backend call).  Spans inside the
library are a later change.

Two tracers share one interface, so a workload is written once:

* :class:`Untraced` hands out the library's own callables — no wrapper sits
  in any hot path, which is how the end-to-end numbers are measured;
* :class:`Traced` wraps the same calls in spans kept in memory.

Every SPMD run uses one bulk-engine worker, so spans nest on one thread and a
layer's self time is its spans minus the children they cover.  Gateway calls
are the exception: 64 client coroutines interleave on one event loop, so their
spans overlap; their names carry the ``serve.call.`` prefix and they are left
out of the self-time arithmetic (the pass they belong to is a nested ``serve``
span).
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro import sion
from repro.backends.base import Backend, RawFile
from repro.backends.instrument import CountingBackend
from repro.simmpi import run_spmd

#: Every SPMD run of the benchmark.  One worker: the default pool (8 threads
#: on 2 cores, all fighting for the GIL) is 4-5x slower and +-30%, so an
#: unpinned pool would measure the scheduler and not the program.
SPMD = {"engine": "bulk", "nworkers": 1, "timeout": 600}

_NAMES: list[str] = []
_IDS: dict[str, int] = {}


def name_id(name: str) -> int:
    """Intern a span name (append-only table shared by all recorders)."""
    nid = _IDS.get(name)
    if nid is None:
        nid = _IDS[name] = len(_NAMES)
        _NAMES.append(name)
    return nid


REP = name_id("harness.rep")
OPEN = name_id("sion.open")

#: Spans of these names may overlap their siblings (interleaved coroutines).
OVERLAPPING = "serve.call."


class Recorder:
    """Finished spans as one flat array of (name id, start, end) triples.

    Recording a span is one C call (``add``), made when the span ends: at a
    third of a million spans per ``ctrl-16k`` rep, a python-level begin/end
    pair per span would alone cost a tenth of the cycle.  Parents are not
    recorded; spans on one thread nest, so :meth:`table` recovers each span's
    parent from the timestamps.
    """

    def __init__(self) -> None:
        self._flat = array("d")
        self.add = self._flat.extend  # add((name id, start, end))

    def __len__(self) -> int:
        return len(self._flat) // 3

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        nid, t0 = name_id(name), perf_counter()
        try:
            yield
        finally:
            self.add((nid, t0, perf_counter()))

    def table(self) -> "SpanTable":
        return SpanTable(np.array(self._flat).reshape(-1, 3))


class SpanTable:
    """Spans in start order with their parents; the analysis side of a trace."""

    def __init__(self, rows: np.ndarray) -> None:
        rows = rows[np.lexsort((-rows[:, 2], rows[:, 1]))]  # by start, longest first
        self.name = rows[:, 0].astype(np.int64)
        self.start, self.end = rows[:, 1], rows[:, 2]
        overlapping = [i for i, n in enumerate(_NAMES) if n.startswith(OVERLAPPING)]
        self.nested = ~np.isin(self.name, overlapping)
        # A span's parent is the innermost nested span still open when it
        # starts; overlapping spans get a parent but are never one.
        parent, stack = [-1] * len(rows), []
        ends = self.end.tolist()
        for i, (start, nested) in enumerate(zip(self.start.tolist(), self.nested.tolist())):
            while stack and ends[stack[-1]] <= start:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
            if nested:
                stack.append(i)
        self.parent = np.array(parent, dtype=np.int64)

    def rep_ranges(self) -> list[tuple[int, int]]:
        """Index range of each ``harness.rep`` root span's subtree.

        In start order a root's subtree is the run of spans up to the next root.
        """
        roots = np.flatnonzero((self.name == REP) & (self.parent == -1)).tolist()
        return list(zip(roots, roots[1:] + [len(self.name)]))

    def self_times(self, lo: int, hi: int) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call count per span name over spans ``[lo, hi)``.

        Self time of a span is its duration minus the durations of its direct
        children; overlapping spans neither count nor subtract.
        """
        name, nested = self.name[lo:hi], self.nested[lo:hi]
        parent = self.parent[lo:hi] - lo
        dur = self.end[lo:hi] - self.start[lo:hi]
        child = nested & (parent >= 0)
        covered = np.bincount(parent[child], weights=dur[child], minlength=hi - lo)
        own = np.where(nested, dur - covered, 0.0)
        seconds = np.bincount(name, weights=own, minlength=len(_NAMES))
        calls = np.bincount(name, minlength=len(_NAMES))
        return (
            {n: float(seconds[i]) for i, n in enumerate(_NAMES) if calls[i]},
            {n: int(calls[i]) for i, n in enumerate(_NAMES) if calls[i]},
        )

    def to_json(self) -> dict[str, Any]:
        """Column-wise dump; times in seconds since the first span, to 0.1 us."""
        t0 = self.start[0] if len(self.start) else 0.0
        rep = np.zeros(len(self.name), dtype=np.int64)
        for k, (lo, hi) in enumerate(self.rep_ranges()):
            rep[lo:hi] = k
        return {
            "names": list(_NAMES),
            "overlapping_prefix": OVERLAPPING,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "rep": rep.tolist(),
                "start": np.round(self.start - t0, 7).tolist(),
                "end": np.round(self.end - t0, 7).tolist(),
            },
        }


# --------------------------------------------------------------------------
# Traced shims.  Every span is closed in ``finally``: a bulk-engine rank body
# is abandoned at a collective (a BaseException unwinds it) and re-executed.


def _spanned(method: str, name: str, target: str) -> Callable:
    """A method that forwards to ``self.<target>.<method>`` inside a span."""
    nid = name_id(name)

    def call(self: Any, *args: Any) -> Any:
        t0 = perf_counter()
        try:
            return getattr(getattr(self, target), method)(*args)
        finally:
            self._add((nid, t0, perf_counter()))

    call.__name__ = method
    return call


def _store(method: str) -> Callable:
    return _spanned(method, f"backends.{method}", "_inner")


class TracedHandle:
    """A parallel file handle whose data calls and close are spans."""

    __slots__ = ("_f", "_add")

    def __init__(self, f: Any, add: Callable) -> None:
        self._f = f
        self._add = add

    fwrite = _spanned("fwrite", "sion.write", "_f")
    fread = _spanned("fread", "sion.read", "_f")
    read_all = _spanned("read_all", "sion.read", "_f")
    parclose = _spanned("parclose", "sion.close", "_f")

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._f, attr)


class TracingRawFile(RawFile):
    """The public ``RawFile`` interface with a span around every call.

    Every method forwards explicitly (no inherited portable default), so the
    wrapped handle sees exactly the calls the library made.
    """

    def __init__(self, inner: RawFile, add: Callable) -> None:
        self._inner = inner
        self._add = add

    seek = _store("seek")
    tell = _store("tell")
    read = _store("read")
    write = _store("write")
    write_zeros = _store("write_zeros")
    truncate = _store("truncate")
    flush = _store("flush")
    close = _store("close")
    pwrite = _store("pwrite")
    pread = _store("pread")
    pwritev = _store("pwritev")
    preadv = _store("preadv")
    scatter_write = _store("scatter_write")
    gather_read = _store("gather_read")


class TracingBackend(Backend):
    """The public ``Backend`` interface with a span around every call."""

    def __init__(self, inner: Backend, add: Callable) -> None:
        self._inner = inner
        self._add = add

    _open = _store("open")

    def open(self, path: str, mode: str) -> TracingRawFile:
        return TracingRawFile(self._open(path, mode), self._add)

    exists = _store("exists")
    unlink = _store("unlink")
    file_size = _store("file_size")
    stat_blocksize = _store("stat_blocksize")
    allocated_size = _store("allocated_size")
    identity_token = _store("identity_token")


def _noted(method: str) -> Callable:
    nid = name_id(f"{OVERLAPPING}{method}")

    async def call(self: Any, *args: Any, **kwargs: Any) -> Any:
        t0 = perf_counter()
        try:
            return await getattr(self._gw, method)(*args, **kwargs)
        finally:
            self._add((nid, t0, perf_counter()))

    call.__name__ = method
    return call


class TracedGateway:
    """A ``ReadGateway`` whose client calls are (overlapping) spans."""

    def __init__(self, gw: Any, add: Callable) -> None:
        self._gw = gw
        self._add = add

    open_session = _noted("open_session")
    read = _noted("read")
    close_session = _noted("close_session")
    read_range = _noted("read_range")

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._gw, attr)


# --------------------------------------------------------------------------
# The tracers: one interface, so a workload is written once.

_NULL = contextlib.nullcontext()


class Untraced:
    """Tracing off: the library's own callables, nothing in between."""

    recorder = None
    paropen = staticmethod(sion.paropen)

    def span(self, name: str) -> Any:
        return _NULL

    def run_spmd(self, nprocs: int, fn: Callable, **kwargs: Any) -> list:
        return run_spmd(nprocs, fn, **SPMD, **kwargs)

    def backend(self, inner: Backend, sources: Iterable[object] = ()) -> Backend:
        return inner

    def gateway(self, gw: Any) -> Any:
        return gw

    def counts(self) -> dict[str, int]:
        return {}


UNTRACED = Untraced()


class Counted(Untraced):
    """Tracing off, backend calls counted (the layer probes)."""

    def __init__(self) -> None:
        self._counting: CountingBackend | None = None

    def backend(self, inner: Backend, sources: Iterable[object] = ()) -> Backend:
        """``inner`` behind a call counter; ``sources`` are the application
        buffers a zero-copy fragment must still live in."""
        self._counting = CountingBackend(inner)
        for payload in sources:
            self._counting.track_source(payload)
        return self._counting

    def counts(self) -> dict[str, int]:
        """Counters of the backend handed out last (one rep's worth)."""
        return self._counting.snapshot() if self._counting is not None else {}


class Traced(Counted):
    """Tracing on: a span around every call into a layer, backend calls counted."""

    def __init__(self) -> None:
        super().__init__()
        self.recorder = Recorder()

    def span(self, name: str) -> Any:
        return self.recorder.span(name)

    def paropen(self, *args: Any, **kwargs: Any) -> TracedHandle:
        add = self.recorder.add
        t0 = perf_counter()
        try:
            return TracedHandle(sion.paropen(*args, **kwargs), add)
        finally:
            add((OPEN, t0, perf_counter()))

    def run_spmd(self, nprocs: int, fn: Callable, **kwargs: Any) -> list:
        with self.recorder.span("simmpi"):
            return run_spmd(nprocs, fn, **SPMD, **kwargs)

    def backend(self, inner: Backend, sources: Iterable[object] = ()) -> Backend:
        return TracingBackend(super().backend(inner, sources), self.recorder.add)

    def gateway(self, gw: Any) -> TracedGateway:
        return TracedGateway(gw, self.recorder.add)
