"""Metadata-contention models.

The paper's Figure 3 shows that creating tens of thousands of files in one
directory serializes: on GPFS the file-system blocks holding the directory
i-node are lock-protected, so concurrent creates queue on the directory
lock; on Lustre all namespace operations queue on the dedicated metadata
server (MDS).  Both reduce to a FIFO service station whose per-operation
service time may grow with the number of entries already in the directory
(hash-chain and journal effects).

:class:`FifoMetadataService` integrates with the event engine: submit an
operation, receive a completion callback at its virtual finish time.
:func:`batch_completion_time_fast` gives the closed form in O(1).
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Callable, Deque

from repro.errors import ModelUsageError
from repro.fs.events import Engine


@dataclass(frozen=True)
class MetadataOp:
    """One namespace operation issued by a client task."""

    kind: str  # "create" | "open" | "stat" | "close" | "unlink" | "mkdir"
    path: str
    task: int = 0


@dataclass
class MetadataCosts:
    """Per-operation service times (seconds) for one metadata domain.

    ``load_factor`` adds ``load_factor * queue_depth`` seconds to each
    operation, modelling journal pressure when thousands of operations
    arrive at once (visible as super-linear growth on Jaguar's MDS).
    ``dirsize_factor`` adds ``dirsize_factor * current_directory_entries``,
    modelling hash-chain lookup growth in huge directories.
    """

    create: float = 1e-3
    open: float = 1e-4
    stat: float = 5e-5
    close: float = 2e-5
    unlink: float = 5e-4
    mkdir: float = 1e-3
    load_factor: float = 0.0
    dirsize_factor: float = 0.0

    def base_time(self, kind: str) -> float:
        try:
            return float(getattr(self, kind))
        except AttributeError:
            raise ModelUsageError(f"unknown metadata op kind: {kind!r}") from None


@dataclass
class _Pending:
    op: MetadataOp
    callback: Callable[[float, MetadataOp], None] | None
    enqueue_time: float


@dataclass
class FifoMetadataService:
    """A serialized metadata domain (directory lock or MDS queue).

    Operations are served one at a time in arrival order.  ``dir_entries``
    tracks how many files the domain's directory holds so the
    ``dirsize_factor`` term can grow lookup costs as the directory fills.
    """

    engine: Engine
    costs: MetadataCosts
    name: str = "meta"
    dir_entries: int = 0
    _queue: Deque[_Pending] = field(default_factory=collections.deque)
    _busy: bool = False
    ops_served: int = 0
    busy_time: float = 0.0

    def submit(
        self,
        op: MetadataOp,
        callback: Callable[[float, MetadataOp], None] | None = None,
    ) -> None:
        """Enqueue ``op``; ``callback(finish_time, op)`` fires at completion."""
        self._queue.append(_Pending(op, callback, self.engine.now))
        if not self._busy:
            self._busy = True
            self.engine.schedule_in(0.0, self._serve_next)

    def service_time(self, kind: str) -> float:
        """Virtual seconds the next ``kind`` operation will occupy the server."""
        t = self.costs.base_time(kind)
        t += self.costs.load_factor * len(self._queue)
        t += self.costs.dirsize_factor * self.dir_entries
        return t

    # -- internals ----------------------------------------------------------

    def _serve_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        pending = self._queue.popleft()
        dt = self.service_time(pending.op.kind)
        self.engine.schedule_in(dt, self._finish, pending, dt)

    def _finish(self, pending: _Pending, dt: float) -> None:
        self.ops_served += 1
        self.busy_time += dt
        if pending.op.kind == "create":
            self.dir_entries += 1
        elif pending.op.kind == "unlink" and self.dir_entries > 0:
            self.dir_entries -= 1
        if pending.callback is not None:
            pending.callback(self.engine.now, pending.op)
        self._serve_next()


def batch_completion_time_fast(
    n_ops: int, costs: MetadataCosts, kind: str = "create", initial_entries: int = 0
) -> float:
    """Closed-form finish time of ``n_ops`` simultaneous operations.

    Matches :class:`FifoMetadataService` when all operations arrive at t=0:
    the i-th served operation (0-based) sees ``n_ops - 1 - i`` queued behind
    it and ``initial_entries + created_so_far`` directory entries, summed as
    arithmetic series.
    """
    if n_ops < 0:
        raise ModelUsageError("n_ops must be non-negative")
    base = costs.base_time(kind)
    total = n_ops * base
    # sum of queue depths: (n-1) + (n-2) + ... + 0
    total += costs.load_factor * (n_ops * (n_ops - 1) / 2)
    if kind == "create":
        # entries grow 0,1,2,... on top of the initial count
        total += costs.dirsize_factor * (
            n_ops * initial_entries + n_ops * (n_ops - 1) / 2
        )
    else:
        total += costs.dirsize_factor * n_ops * initial_entries
    return total
