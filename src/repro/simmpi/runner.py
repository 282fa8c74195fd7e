"""SPMD program execution: one entry point, three engines.

:func:`run_spmd` launches ``nprocs`` copies of a function, each with its own
rank's communicator, joins them, and either returns the rank-ordered
results or raises :class:`~repro.errors.SpmdWorkerError` carrying every
rank's exception.  A failing rank aborts the world's synchronization
primitives so no surviving rank deadlocks.  The thread engine (one OS
thread per rank over :class:`~repro.simmpi.comm.ThreadComm`) lives here;
the bulk and process engines are dispatched to :mod:`repro.simmpi.bulk`
and :mod:`repro.simmpi.proc`.  All three hand the rank program the same
:class:`~repro.simmpi.comm.Comm` API over their own transport.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Any, Callable, Iterator

from repro.errors import CommAbortedError, SimMPIError, SpmdWorkerError
from repro.simmpi.comm import ThreadComm, make_world

#: Default safety timeout for collectives; prevents silent test hangs.
#: Overridable per environment via ``REPRO_SPMD_TIMEOUT`` (seconds; zero or
#: negative disables the timeout entirely) — large bulk-engine benchmark
#: runs on slow CI workers routinely need more than the 120 s default.
DEFAULT_TIMEOUT = 120.0

#: Sentinel distinguishing "caller passed nothing" from an explicit None.
_TIMEOUT_UNSET = object()

#: Engines selectable via ``run_spmd(..., engine=...)``.
ENGINES = ("threads", "bulk", "proc")


def normalize_engine(engine: str) -> str:
    """``engine`` if it is one of :data:`ENGINES`; raises on any other name."""
    if engine not in ENGINES:
        raise SimMPIError(
            f"unknown SPMD engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


def resolve_timeout(timeout: Any = _TIMEOUT_UNSET) -> float | None:
    """The effective SPMD timeout: explicit arg > env var > default.

    ``REPRO_SPMD_TIMEOUT`` is read at call time (not import time) so test
    environments and CI jobs can adjust it per run.  A value <= 0 disables
    the timeout.
    """
    if timeout is not _TIMEOUT_UNSET:
        return timeout
    raw = os.environ.get("REPRO_SPMD_TIMEOUT")
    if raw is None or not raw.strip():
        return DEFAULT_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        raise SimMPIError(
            f"REPRO_SPMD_TIMEOUT must be a number of seconds, got {raw!r}"
        ) from None
    return value if value > 0 else None


def run_spmd(
    nprocs: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: Any = _TIMEOUT_UNSET,
    engine: str = "threads",
    nworkers: int | None = None,
    engine_stats: dict | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args, **kwargs)`` on ``nprocs`` ranks and join.

    Parameters
    ----------
    nprocs:
        Number of logical ranks.
    fn:
        The SPMD program.  Receives the rank's communicator as the first
        positional argument.
    timeout:
        Collective/receive timeout in seconds (``None`` disables).  When
        omitted, the ``REPRO_SPMD_TIMEOUT`` environment variable (seconds,
        <= 0 disables) is consulted before falling back to
        :data:`DEFAULT_TIMEOUT`.  A rank stuck longer than this raises
        instead of hanging the process.
    engine:
        ``"threads"`` (default) runs one OS thread per rank — fully
        preemptive, supports arbitrary blocking programs, practical up to
        a few thousand ranks.  ``"bulk"`` runs ranks cooperatively, one
        at a time on the calling thread, with wave-vectorized
        collectives: op logs are shared program rows of interned opcode
        ids, per-op results live in per-position value columns, and each
        collective is one preallocated wave buffer — O(1) python objects
        of engine state per rank, practical to a million ranks.  Rank bodies may be
        re-executed when a collective unblocks (see
        :mod:`repro.simmpi.bulk` for the contract; guard non-idempotent
        effects with ``Comm.exec_once``).
        ``"proc"`` runs one OS *process* per rank with hub-routed
        collectives over per-rank queues — the only engine whose
        aggregate bandwidth scales past one core; payloads cross by
        value and backend handles must be picklable or rank-local (see
        :mod:`repro.simmpi.proc`).
    nworkers:
        Accepted and ignored.  The bulk engine once had a worker pool of
        this size; it runs on the calling thread now, and the keyword
        remains only so that it is not forwarded to ``fn``.
    engine_stats:
        Bulk engine only: pass a dict to receive engine telemetry on
        return (execution counts, program rows, per-wave timings — see
        :func:`repro.simmpi.bulk.run_spmd_bulk`).  The other engines
        leave the dict untouched.

    Returns
    -------
    list
        ``fn``'s return value for each rank, in rank order.

    Raises
    ------
    SpmdWorkerError
        If any rank raised.  ``failures`` maps rank to the exception; ranks
        that only failed because the world was aborted are omitted.
    """
    timeout = resolve_timeout(timeout)
    engine = normalize_engine(engine)
    if engine == "bulk":
        from repro.simmpi.bulk import run_spmd_bulk

        return run_spmd_bulk(
            nprocs, fn, *args, timeout=timeout, stats=engine_stats, **kwargs
        )
    if engine == "proc":
        from repro.simmpi.proc import run_spmd_proc

        return run_spmd_proc(nprocs, fn, *args, timeout=timeout, **kwargs)
    comms = make_world(nprocs, timeout=timeout)
    results: list[Any] = [None] * nprocs
    failures: dict[int, BaseException] = {}
    failures_lock = threading.Lock()

    def worker(rank: int) -> None:
        try:
            results[rank] = fn(comms[rank], *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - fan out to caller
            with failures_lock:
                failures[rank] = exc
            comms[rank].abort()

    threads = [
        threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}", daemon=True)
        for r in range(nprocs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    if failures:
        raise spmd_failure_error(failures)
    return results


def spmd_failure_error(failures: dict[int, BaseException]) -> SpmdWorkerError:
    """Shared failure policy of all three engines: abort fallout
    (:class:`~repro.errors.CommAbortedError`) is reported only when no
    primary failure remains to explain it."""
    primary = {
        rank: exc
        for rank, exc in failures.items()
        if not isinstance(exc, CommAbortedError)
    }
    return SpmdWorkerError(primary or failures)


@contextlib.contextmanager
def spmd_context(
    nprocs: int, timeout: Any = _TIMEOUT_UNSET
) -> Iterator[list[ThreadComm]]:
    """Context manager yielding the communicators of a world.

    Useful for driving ranks manually from test code (e.g. one rank per
    explicitly managed thread).  On exit the world is aborted so stray
    blocked threads are released.
    """
    comms = make_world(nprocs, timeout=resolve_timeout(timeout))
    try:
        yield comms
    finally:
        comms[0].abort()
