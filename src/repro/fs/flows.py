"""Fluid-flow bandwidth model with max-min fair sharing.

Data transfers are modelled as *flows* that traverse a set of shared
:class:`Resource` objects (client links, object storage targets, the file
server backplane) and may additionally carry a private rate cap (e.g. a
per-file token-manager limit).  At any instant, rates are the max-min fair
allocation computed by progressive filling; the scheduler integrates rates
over virtual time and fires a completion callback when a flow's bytes drain.

Resources can be used *fractionally*: a file striped over 4 OSTs charges
each OST one quarter of the flow's rate (``weight=0.25``).  Flows sharing
the same weighted resource set and cap are grouped into *profiles*; rates
are computed per profile and completions inside a profile are tracked with
a virtual-service accumulator, so symmetric workloads with tens of
thousands of flows need only a handful of rate recomputations.  Use
:meth:`FlowScheduler.batch` when submitting many flows at once.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
from typing import Any, Callable, Iterator, Sequence, Union

from repro.errors import ModelFailureError, ModelUsageError
from repro.fs.events import Engine

_EPS = 1e-9

#: A path element: a plain resource (weight 1) or ``(resource, weight)``.
ResourceSpec = Union["Resource", tuple["Resource", float]]


class Resource:
    """A shared capacity (MB/s) that concurrent flows divide fairly."""

    __slots__ = ("name", "capacity")

    def __init__(self, name: str, capacity: float) -> None:
        if capacity < 0:
            raise ModelUsageError(f"resource {name!r}: negative capacity {capacity}")
        self.name = name
        self.capacity = float(capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource({self.name!r}, {self.capacity} MB/s)"


def _normalize(resources: Sequence[ResourceSpec]) -> tuple[tuple["Resource", float], ...]:
    out: list[tuple[Resource, float]] = []
    for spec in resources:
        if isinstance(spec, Resource):
            out.append((spec, 1.0))
        else:
            res, w = spec
            if w <= 0:
                raise ModelUsageError(f"resource weight must be positive, got {w}")
            out.append((res, float(w)))
    return tuple(out)


class Flow:
    """One transfer: ``size_mb`` across weighted resources, at most ``rate_cap``."""

    __slots__ = (
        "flow_id",
        "size_mb",
        "resources",
        "rate_cap",
        "on_complete",
        "start_time",
        "finish_time",
        "tag",
    )

    def __init__(
        self,
        flow_id: int,
        size_mb: float,
        resources: tuple[tuple[Resource, float], ...],
        rate_cap: float,
        on_complete: Callable[[float, "Flow"], None] | None,
        tag: Any,
    ) -> None:
        self.flow_id = flow_id
        self.size_mb = size_mb
        self.resources = resources
        self.rate_cap = rate_cap
        self.on_complete = on_complete
        self.start_time: float = math.nan
        self.finish_time: float = math.nan
        self.tag = tag

    @property
    def duration(self) -> float:
        """Transfer time (valid after completion)."""
        return self.finish_time - self.start_time


class _Profile:
    """Flows with identical weighted paths and caps share one fair rate."""

    __slots__ = ("resources", "rate_cap", "rate", "service", "heap", "count")

    def __init__(
        self, resources: tuple[tuple[Resource, float], ...], rate_cap: float
    ) -> None:
        self.resources = resources
        self.rate_cap = rate_cap
        self.rate = 0.0
        # Cumulative MB served to each member flow since profile creation.
        self.service = 0.0
        # Heap of (service level at which the flow completes, id, flow).
        self.heap: list[tuple[float, int, Flow]] = []
        self.count = 0


class FlowScheduler:
    """Engine-integrated fluid-flow simulator.

    >>> eng = Engine()
    >>> sched = FlowScheduler(eng)
    >>> disk = Resource("disk", 100.0)
    >>> f1 = sched.submit(100.0, (disk,))
    >>> f2 = sched.submit(100.0, (disk,))
    >>> eng.run()
    >>> round(f1.finish_time, 6), round(f2.finish_time, 6)
    (2.0, 2.0)
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._profiles: dict[tuple, _Profile] = {}
        self._ids = itertools.count()
        self._completion_event = None
        self._last_update = engine.now
        self._deferred = False
        self.completed: list[Flow] = []

    # -- public API ---------------------------------------------------------

    def submit(
        self,
        size_mb: float,
        resources: Sequence[ResourceSpec],
        rate_cap: float = math.inf,
        on_complete: Callable[[float, Flow], None] | None = None,
        tag: Any = None,
    ) -> Flow:
        """Start a flow at the current virtual time."""
        if size_mb < 0:
            raise ModelUsageError(f"negative flow size: {size_mb}")
        if rate_cap <= 0:
            raise ModelUsageError(f"rate cap must be positive, got {rate_cap}")
        weighted = _normalize(resources)
        flow = Flow(next(self._ids), float(size_mb), weighted, rate_cap, on_complete, tag)
        flow.start_time = self.engine.now
        if size_mb <= _EPS:
            # Zero-byte transfer: completes instantly, no bandwidth involved.
            flow.finish_time = self.engine.now
            self.completed.append(flow)
            self.engine.schedule_in(0.0, self._fire_callback, flow)
            return flow
        self._advance_service()
        prof = self._get_profile(weighted, flow.rate_cap)
        heapq.heappush(prof.heap, (prof.service + flow.size_mb, flow.flow_id, flow))
        prof.count += 1
        if not self._deferred:
            self._recompute_and_reschedule()
        return flow

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Defer rate recomputation while submitting many flows at once."""
        self._deferred = True
        try:
            yield
        finally:
            self._deferred = False
            self._recompute_and_reschedule()

    @property
    def active_flows(self) -> int:
        """Number of flows still transferring."""
        return sum(p.count for p in self._profiles.values())

    # -- internals ------------------------------------------------------------

    def _get_profile(
        self, resources: tuple[tuple[Resource, float], ...], cap: float
    ) -> _Profile:
        key = (tuple((id(r), w) for r, w in resources), cap)
        prof = self._profiles.get(key)
        if prof is None:
            prof = _Profile(resources, cap)
            self._profiles[key] = prof
        return prof

    def _advance_service(self) -> None:
        """Integrate rates from the last update to now."""
        dt = self.engine.now - self._last_update
        if dt > 0:
            for prof in self._profiles.values():
                if prof.count and prof.rate > 0 and math.isfinite(prof.rate):
                    prof.service += prof.rate * dt
        self._last_update = self.engine.now

    def _recompute_rates(self) -> None:
        """Progressive-filling max-min fair allocation over profiles."""
        active = [p for p in self._profiles.values() if p.count > 0]
        for p in active:
            p.rate = 0.0
        if not active:
            return
        residual: dict[int, float] = {}
        load: dict[int, float] = {}  # sum of (count * weight) of unfrozen users
        for p in active:
            for r, w in p.resources:
                rid = id(r)
                residual.setdefault(rid, r.capacity)
                load[rid] = load.get(rid, 0.0) + p.count * w
        unfrozen = set(range(len(active)))
        guard = 0
        while unfrozen:
            guard += 1
            if guard > len(active) + len(residual) + 2:  # pragma: no cover
                raise ModelFailureError("progressive filling failed to converge")
            # Smallest per-flow headroom across resources and caps.
            delta = math.inf
            bottleneck_res: int | None = None
            for rid, cap_left in residual.items():
                users = load[rid]
                if users <= _EPS:
                    continue
                head = cap_left / users
                if head < delta - _EPS:
                    delta = head
                    bottleneck_res = rid
            cap_limited: list[int] = []
            for i in unfrozen:
                head = active[i].rate_cap - active[i].rate
                if head < delta - _EPS:
                    delta = head
                    bottleneck_res = None
                    cap_limited = [i]
            if not math.isfinite(delta):
                # No shared resources and no caps: unconstrained flows.
                for i in unfrozen:
                    active[i].rate = math.inf
                break
            delta = max(delta, 0.0)
            for i in unfrozen:
                active[i].rate += delta
            for rid in residual:
                residual[rid] -= delta * load[rid]
            newly_frozen: set[int] = set()
            if bottleneck_res is not None:
                for i in unfrozen:
                    if any(id(r) == bottleneck_res for r, _ in active[i].resources):
                        newly_frozen.add(i)
            else:
                newly_frozen.update(cap_limited)
            # Also freeze any profile that reached its cap exactly.
            for i in unfrozen:
                if active[i].rate >= active[i].rate_cap - _EPS:
                    newly_frozen.add(i)
            if not newly_frozen:  # pragma: no cover - numeric safety
                newly_frozen = set(unfrozen)
            for i in newly_frozen:
                unfrozen.discard(i)
                for r, w in active[i].resources:
                    load[id(r)] -= active[i].count * w
        for rid in load:
            if load[rid] < 0:
                load[rid] = 0.0

    def _next_completion(self) -> tuple[float, _Profile] | None:
        best: tuple[float, _Profile] | None = None
        for prof in self._profiles.values():
            if prof.count == 0 or prof.rate <= 0:
                continue
            target, _, _ = prof.heap[0]
            if math.isinf(prof.rate):
                t = self.engine.now
            else:
                t = self.engine.now + max(target - prof.service, 0.0) / prof.rate
            if best is None or t < best[0]:
                best = (t, prof)
        return best

    def _recompute_and_reschedule(self) -> None:
        self._recompute_rates()
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        nxt = self._next_completion()
        if nxt is not None:
            self._completion_event = self.engine.schedule_at(
                nxt[0], self._complete_head, nxt[1]
            )

    def _complete_head(self, prof: _Profile) -> None:
        self._completion_event = None
        self._advance_service()
        # Pop every flow of this profile whose service target is reached
        # (symmetric workloads complete whole batches at one instant).
        finished: list[Flow] = []
        if math.isinf(prof.rate):
            # Unconstrained profile: every member completes instantly.
            prof.service = max((t for t, _, _ in prof.heap), default=prof.service)
        while prof.heap and prof.heap[0][0] <= prof.service + _EPS * max(1.0, prof.service):
            _, _, flow = heapq.heappop(prof.heap)
            prof.count -= 1
            flow.finish_time = self.engine.now
            finished.append(flow)
        self._recompute_and_reschedule()
        for flow in finished:
            self.completed.append(flow)
            self._fire_callback(flow)

    def _fire_callback(self, flow: Flow) -> None:
        if flow.on_complete is not None:
            flow.on_complete(self.engine.now, flow)
