"""Per-task event collection and trace-file writing.

Mirrors the Scalasca tracing module's I/O behaviour (paper §5.2):

* *Measurement activation* creates the trace files and initializes the
  tracing library — the phase whose cost Table 2 compares (369.1 s with
  task-local files vs. 28.1 s with SIONlib at 32K tasks).  With SIONlib
  the collective open happens here, using a chunk size equal to the
  collection-buffer capacity (the uncompressed data bound), so only one
  block of chunks is ever needed — the exact trick the paper describes
  for retaining application-level zlib compression.
* During the run, events go into an in-memory collection buffer.
* At *finalization* each task compresses its buffer and writes it to its
  task-local trace.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.apps.scalasca.events import Event, EventKind, decode_events, encode_events
from repro.backends.base import Backend
from repro.baselines.tasklocal import task_local_path
from repro.errors import SionUsageError
from repro.simmpi.comm import Comm
from repro.sion import paropen
from repro.sion import open_rank as sion_open_rank

METHODS = ("sion", "tasklocal")

#: Default collection-buffer capacity per task (uncompressed bytes).
DEFAULT_BUFFER_CAPACITY = 1 << 20


class Tracer:
    """One task's collection buffer."""

    def __init__(self, rank: int, capacity: int = DEFAULT_BUFFER_CAPACITY) -> None:
        if capacity < 1:
            raise SionUsageError("buffer capacity must be positive")
        self.rank = rank
        self.capacity = capacity
        self._events: list[Event] = []
        self._bytes = 0
        self._clock = 0.0
        self.dropped = 0

    # -- instrumentation API --------------------------------------------------

    def advance(self, dt: float) -> float:
        """Advance this task's virtual clock (the 'application work')."""
        if dt < 0:
            raise SionUsageError("time cannot run backwards")
        self._clock += dt
        return self._clock

    @property
    def now(self) -> float:
        return self._clock

    def enter(self, region: int) -> None:
        """Record entering an instrumented region."""
        self._record(Event(EventKind.ENTER, region, timestamp=self._clock))

    def exit(self, region: int) -> None:
        """Record leaving an instrumented region."""
        self._record(Event(EventKind.EXIT, region, timestamp=self._clock))

    def send(self, dest: int, tag: int = 0, nbytes: int = 0) -> None:
        """Record a message send at the current clock."""
        self._record(
            Event(EventKind.SEND, dest, tag=tag, nbytes=nbytes, timestamp=self._clock)
        )

    def recv(self, source: int, tag: int = 0, nbytes: int = 0) -> None:
        """Record a message receive *completion* at the current clock."""
        self._record(
            Event(EventKind.RECV, source, tag=tag, nbytes=nbytes, timestamp=self._clock)
        )

    def barrier_enter(self, barrier_id: int = 0) -> None:
        """Record arriving at a collective barrier."""
        self._record(Event(EventKind.BARRIER_ENTER, barrier_id, timestamp=self._clock))

    def barrier_exit(self, barrier_id: int = 0) -> None:
        """Record leaving a collective barrier."""
        self._record(Event(EventKind.BARRIER_EXIT, barrier_id, timestamp=self._clock))

    def _record(self, event: Event) -> None:
        from repro.apps.scalasca.events import RECORD_BYTES

        if self._bytes + RECORD_BYTES > self.capacity:
            # Real tracers flush or drop; we drop and count, keeping the
            # buffer bound honest.
            self.dropped += 1
            return
        self._events.append(event)
        self._bytes += RECORD_BYTES

    # -- buffer access -----------------------------------------------------------

    @property
    def n_events(self) -> int:
        return len(self._events)

    @property
    def events(self) -> list[Event]:
        return list(self._events)

    def buffer_bytes(self) -> bytes:
        """The uncompressed record stream."""
        return encode_events(self._events)


@dataclass
class TraceWriteStats:
    """Per-task accounting of one finalization."""

    uncompressed_bytes: int
    written_bytes: int

    @property
    def compression_ratio(self) -> float:
        if self.uncompressed_bytes == 0:
            return 1.0
        return self.written_bytes / self.uncompressed_bytes


class TraceExperiment:
    """Collective trace-measurement lifecycle for one method.

    Usage (SPMD, inside every task)::

        exp = TraceExperiment(comm, "/scratch/trace", method="sion")
        exp.activate()        # create trace files   (Table 2's phase)
        exp.tracer.enter(0)   # ... instrument the application ...
        stats = exp.finalize()
    """

    def __init__(
        self,
        comm: Comm,
        base_path: str,
        method: str = "sion",
        backend: Backend | None = None,
        nfiles: int = 1,
        buffer_capacity: int = DEFAULT_BUFFER_CAPACITY,
        compression_level: int = 6,
    ) -> None:
        if method not in METHODS:
            raise SionUsageError(f"unknown trace method {method!r}; use {METHODS}")
        self.comm = comm
        self.base_path = base_path
        self.method = method
        self.backend = backend
        self.nfiles = nfiles
        self.compression_level = compression_level
        self.tracer = Tracer(comm.rank, capacity=buffer_capacity)
        self._activated = False
        self._finalized = False
        self._handle = None  # task-local raw file or SION parallel file

    # -- lifecycle -----------------------------------------------------------------

    def activate(self) -> None:
        """Create the trace files (the paper's *measurement activation*).

        Task-local: every task creates its own physical file — N creates
        in one directory.  SION: one collective open with chunk size equal
        to the buffer capacity.
        """
        if self._activated:
            raise SionUsageError("trace experiment already activated")
        if self.method == "tasklocal":
            from repro.backends.localfs import LocalBackend

            backend = self.backend if self.backend is not None else LocalBackend()
            path = task_local_path(self.base_path, self.comm.rank)
            self._handle = backend.open(path, "wb")
            self.comm.barrier()
        else:
            self._handle = paropen(
                self.base_path,
                "w",
                self.comm,
                chunksize=self.tracer.capacity,
                nfiles=self.nfiles,
                backend=self.backend,
            )
        self._activated = True

    def finalize(self) -> TraceWriteStats:
        """Compress the collection buffer and write the trace (collective)."""
        if not self._activated:
            raise SionUsageError("activate() must precede finalize()")
        if self._finalized:
            raise SionUsageError("trace experiment already finalized")
        raw = self.tracer.buffer_bytes()
        compressed = zlib.compress(raw, self.compression_level)
        assert self._handle is not None
        if self.method == "tasklocal":
            self._handle.pwrite(0, compressed)
            self._handle.flush()
            self._handle.close()
        else:
            self._handle.fwrite(compressed)
            self._handle.parclose()
        # Every rank's analyzer then reads any task's trace through the
        # serial interface, so the whole set must be sealed first.
        self.comm.barrier()
        self._finalized = True
        return TraceWriteStats(
            uncompressed_bytes=len(raw), written_bytes=len(compressed)
        )


def read_trace(
    base_path: str,
    rank: int,
    method: str = "sion",
    backend: Backend | None = None,
) -> list[Event]:
    """Load one task's trace (the analyzer's per-task read path).

    For SION this uses the serial interface in task-local view mode —
    "parallel use of the serial interface", exactly as the paper's trace
    analyzer does.
    """
    if method == "sion":
        with sion_open_rank(base_path, rank, backend=backend) as rf:
            compressed = rf.read_all()
    elif method == "tasklocal":
        from repro.backends.localfs import LocalBackend

        backend = backend if backend is not None else LocalBackend()
        path = task_local_path(base_path, rank)
        with backend.open(path, "rb") as f:
            compressed = f.pread(0, backend.file_size(path))
    else:
        raise SionUsageError(f"unknown trace method {method!r}; use {METHODS}")
    return decode_events(zlib.decompress(compressed))
