"""Minimal discrete-event engine with a virtual clock.

Events are ``(time, sequence, callback)`` triples on a heap; ties in time
break by scheduling order, which keeps runs deterministic.  The engine never
sleeps — simulating hours of I/O takes milliseconds of real time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.errors import ModelUsageError


class Event:
    """Handle for a scheduled callback; setting ``cancelled`` drops it."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Engine:
    """Virtual-time event loop.

    >>> eng = Engine()
    >>> order = []
    >>> _ = eng.schedule_at(2.0, order.append, "b")
    >>> _ = eng.schedule_at(1.0, order.append, "a")
    >>> eng.run()
    >>> order, eng.now
    (['a', 'b'], 2.0)
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._events_processed = 0

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now - 1e-12:
            raise ModelUsageError(f"cannot schedule in the past: {time} < now {self.now}")
        ev = Event(max(time, self.now), next(self._seq), fn, args)
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` units of virtual time."""
        if delay < 0:
            raise ModelUsageError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, fn, *args)

    def run(self, until: float | None = None) -> None:
        """Process events in time order until the queue drains (or ``until``)."""
        while self._heap:
            ev = self._heap[0]
            if until is not None and ev.time > until:
                self.now = until
                return
            heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self.now = ev.time
            self._events_processed += 1
            ev.fn(*ev.args)
        if until is not None:
            self.now = max(self.now, until)

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far (diagnostics)."""
        return self._events_processed
