"""Parallel trace analyzer: late-sender wait-state search (paper Fig. 7).

Each analysis task loads the trace of "its" application rank into memory
(task-local view), extracts the send timestamps, and exchanges them so
every receiver can compare a message's send time against the moment it was
ready to receive.  A receive that had to wait for a late sender contributes
``send_ts - ready_ts`` of waiting time — Scalasca's *Late Sender* pattern.

The analysis is itself a parallel program over the same communicator size
as the original run, mirroring the paper's workflow where traces are
"loaded postmortem into the distributed memory of a parallel trace
analyzer".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.scalasca.events import Event, EventKind
from repro.apps.scalasca.tracer import read_trace
from repro.backends.base import Backend
from repro.errors import ReproError
from repro.simmpi.comm import Comm


@dataclass
class WaitState:
    """One detected late-sender instance."""

    receiver: int
    sender: int
    tag: int
    wait_time: float
    recv_timestamp: float


@dataclass
class AnalysisResult:
    """Global outcome of the wait-state search."""

    ntasks: int
    total_wait_time: float
    max_wait_time: float
    n_wait_states: int
    wait_per_task: list[float]
    worst_states: list[WaitState] = field(default_factory=list)


def _extract_sends(events: list[Event]) -> dict[int, list[tuple[int, float]]]:
    """Per-destination ordered list of (tag, timestamp) of SEND events."""
    out: dict[int, list[tuple[int, float]]] = {}
    for e in events:
        if e.kind == EventKind.SEND:
            out.setdefault(e.ref, []).append((e.tag, e.timestamp))
    return out


def _extract_recvs(events: list[Event]) -> dict[int, list[tuple[int, float, float]]]:
    """Per-source ordered (tag, ready_ts, completion_ts) of RECV events.

    ``ready_ts`` is the timestamp of the event preceding the receive —
    the moment the task could have completed the receive had the message
    already arrived.
    """
    out: dict[int, list[tuple[int, float, float]]] = {}
    prev_ts = 0.0
    for e in events:
        if e.kind == EventKind.RECV:
            out.setdefault(e.ref, []).append((e.tag, prev_ts, e.timestamp))
        prev_ts = e.timestamp
    return out


def analyze_local(
    rank: int,
    events: list[Event],
    sends_to_me: dict[int, list[tuple[int, float]]],
) -> tuple[float, list[WaitState]]:
    """Match receives against sender timestamps; return waits found."""
    waits: list[WaitState] = []
    total = 0.0
    recvs = _extract_recvs(events)
    for src, rlist in recvs.items():
        slist = sends_to_me.get(src, [])
        if len(slist) < len(rlist):
            raise ReproError(
                f"rank {rank}: {len(rlist)} receives from {src} but only "
                f"{len(slist)} matching sends in its trace"
            )
        for (tag, ready_ts, done_ts), (stag, send_ts) in zip(rlist, slist):
            if tag != stag:
                raise ReproError(
                    f"rank {rank}: tag mismatch with {src} ({tag} != {stag})"
                )
            wait = send_ts - ready_ts
            if wait > 1e-12:
                total += wait
                waits.append(
                    WaitState(
                        receiver=rank,
                        sender=src,
                        tag=tag,
                        wait_time=wait,
                        recv_timestamp=done_ts,
                    )
                )
    return total, waits


@dataclass
class BarrierWaitResult:
    """Wait-at-Barrier severities (identical on every rank).

    ``wait_per_task[r]`` is the total time rank ``r`` spent waiting at
    barriers for the slowest participant; instance ``k`` of
    ``instance_waits`` is that barrier occurrence's summed wait.
    """

    ntasks: int
    n_instances: int
    total_wait_time: float
    wait_per_task: list[float]
    instance_waits: list[float]


def analyze_barriers(
    comm: Comm,
    base_path: str,
    method: str = "sion",
    backend: Backend | None = None,
) -> BarrierWaitResult:
    """Collective Wait-at-Barrier search (Scalasca's barrier pattern).

    Barrier instances are matched by occurrence order (SPMD programs hit
    the same barriers in the same order on every rank); each instance's
    wait for rank r is ``max_enter - enter_r``.
    """
    events = read_trace(base_path, comm.rank, method=method, backend=backend)
    my_enters = [
        e.timestamp for e in events if e.kind == EventKind.BARRIER_ENTER
    ]
    all_enters = comm.allgather(my_enters)
    counts = {len(lst) for lst in all_enters}
    if len(counts) > 1:
        raise ReproError(
            f"ranks disagree on the number of barrier instances: {sorted(counts)}"
        )
    n_instances = counts.pop() if counts else 0
    wait_per_task = [0.0] * comm.size
    instance_waits: list[float] = []
    for k in range(n_instances):
        enters = [all_enters[r][k] for r in range(comm.size)]
        latest = max(enters)
        waits = [latest - e for e in enters]
        instance_waits.append(sum(waits))
        for r, w in enumerate(waits):
            wait_per_task[r] += w
    return BarrierWaitResult(
        ntasks=comm.size,
        n_instances=n_instances,
        total_wait_time=sum(wait_per_task),
        wait_per_task=wait_per_task,
        instance_waits=instance_waits,
    )


def analyze_traces(
    comm: Comm,
    base_path: str,
    method: str = "sion",
    backend: Backend | None = None,
    keep_worst: int = 10,
) -> AnalysisResult:
    """Collective late-sender analysis over all tasks' traces.

    Every task loads trace ``comm.rank``, the send timestamps are
    exchanged all-to-all, and the per-task waiting times are reduced to a
    global result (identical on every rank).
    """
    events = read_trace(base_path, comm.rank, method=method, backend=backend)
    sends = _extract_sends(events)
    # Route my send timestamps to each destination's analyzer task.
    outboxes = [sends.get(dst, []) for dst in range(comm.size)]
    inbox_lists = comm.alltoall(outboxes)
    sends_to_me = {
        src: lst for src, lst in enumerate(inbox_lists) if lst
    }
    my_wait, my_states = analyze_local(comm.rank, events, sends_to_me)

    wait_per_task = comm.allgather(my_wait)
    all_counts = comm.allreduce(len(my_states))
    # Collect a bounded set of the worst wait states globally.
    my_states.sort(key=lambda w: w.wait_time, reverse=True)
    gathered = comm.allgather(my_states[:keep_worst])
    worst: list[WaitState] = [w for states in gathered for w in states]
    worst.sort(key=lambda w: w.wait_time, reverse=True)
    return AnalysisResult(
        ntasks=comm.size,
        total_wait_time=sum(wait_per_task),
        max_wait_time=max(wait_per_task) if wait_per_task else 0.0,
        n_wait_states=all_counts,
        wait_per_task=wait_per_task,
        worst_states=worst[:keep_worst],
    )
