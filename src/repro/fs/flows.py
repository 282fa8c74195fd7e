"""Fluid-flow bandwidth model with max-min fair sharing.

Data transfers are modelled as *flows* that traverse a set of shared
:class:`Resource` objects (client links, object storage targets, the file
server backplane) and may additionally carry a private rate cap (e.g. a
per-file token-manager limit).  Every flow starts at t=0.  At any instant,
rates are the max-min fair allocation computed by progressive filling
(Bertsekas & Gallager, *Data Networks*); :func:`finish_times` steps from
one completion to the next and reports when each flow drains.

Resources can be used *fractionally*: a file striped over 4 OSTs charges
each OST one quarter of the flow's rate (``weight=0.25``).  Flows sharing
the same weighted resource set and cap are grouped into *profiles*; rates
are computed per profile and completions inside a profile are tracked with
a virtual-service accumulator, so symmetric workloads with tens of
thousands of flows need only a handful of rate recomputations.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence, Union

from repro.errors import ModelFailureError, ModelUsageError

_EPS = 1e-9

#: A path element: a plain resource (weight 1) or ``(resource, weight)``.
ResourceSpec = Union["Resource", tuple["Resource", float]]

#: ``(size_mb, resources)`` or ``(size_mb, resources, rate_cap)``.
FlowSpec = Union[
    tuple[float, Sequence[ResourceSpec]], tuple[float, Sequence[ResourceSpec], float]
]


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


class _Profile:
    """Flows with identical weighted paths and caps share one fair rate."""

    __slots__ = ("resources", "rate_cap", "rate", "service", "heap", "count")

    def __init__(
        self, resources: tuple[tuple[Resource, float], ...], rate_cap: float
    ) -> None:
        self.resources = resources
        self.rate_cap = rate_cap
        self.rate = 0.0
        # Cumulative MB served to each member flow since t=0.
        self.service = 0.0
        # Heap of (service level at which the flow drains, flow index).
        self.heap: list[tuple[float, int]] = []
        self.count = 0


def finish_times(flows: Iterable[FlowSpec]) -> list[float]:
    """When each flow drains, all starting at t=0, in input order.

    >>> disk = Resource("disk", 100.0)
    >>> finish_times([(50.0, (disk,)), (150.0, (disk,)), (10.0, (disk,), 10.0)])
    [1.1, 2.1, 1.0]

    A flow that can never drain (a zero-capacity resource on its path)
    raises :class:`~repro.errors.ModelFailureError`.
    """
    profiles: dict[tuple, _Profile] = {}
    done: list[float] = []
    for i, (size_mb, resources, *cap) in enumerate(flows):
        rate_cap = cap[0] if cap else math.inf
        if size_mb < 0:
            raise ModelUsageError(f"negative flow size: {size_mb}")
        if rate_cap <= 0:
            raise ModelUsageError(f"rate cap must be positive, got {rate_cap}")
        weighted = _normalize(resources)
        done.append(0.0)
        if size_mb <= _EPS:
            continue  # zero-byte transfer: no bandwidth involved
        key = (tuple((id(r), w) for r, w in weighted), rate_cap)
        prof = profiles.get(key)
        if prof is None:
            prof = profiles[key] = _Profile(weighted, rate_cap)
        heapq.heappush(prof.heap, (float(size_mb), i))
        prof.count += 1

    now = 0.0
    while True:
        _max_min_rates(profiles.values())
        head: _Profile | None = None
        then = math.inf
        for prof in profiles.values():
            if prof.count == 0 or prof.rate <= 0:
                continue
            if math.isinf(prof.rate):
                t = now
            else:
                t = now + max(prof.heap[0][0] - prof.service, 0.0) / prof.rate
            if head is None or t < then:
                head, then = prof, t
        if head is None:
            break
        dt = then - now
        if dt > 0:
            for prof in profiles.values():
                if prof.count and prof.rate > 0 and math.isfinite(prof.rate):
                    prof.service += prof.rate * dt
        now = then
        if math.isinf(head.rate):
            # Unconstrained profile: every member drains at once.
            head.service = max(target for target, _ in head.heap)
        # Symmetric workloads drain whole profiles at one instant.
        while head.heap and head.heap[0][0] <= head.service + _EPS * max(1.0, head.service):
            _, i = heapq.heappop(head.heap)
            head.count -= 1
            done[i] = now
    if any(prof.count for prof in profiles.values()):
        raise ModelFailureError("a flow can never drain: a resource has zero capacity")
    return done


def _max_min_rates(profiles: Iterable[_Profile]) -> None:
    """Progressive-filling max-min fair allocation over profiles."""
    active = [p for p in profiles if p.count > 0]
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
