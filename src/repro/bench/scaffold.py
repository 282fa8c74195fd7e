"""Shared scaffolding of the grid suites (``scale``, ``collective``,
``repartition``, ``serve``, ``resilience``): the common container
geometry, the in-scenario pin helpers, and the metric policy.

**Metric policy.**  A scenario's *gated* metrics are the deterministic
ones — geometry bytes, modelled seconds, hit rates, retained-object
counts.  Everything read from the host clock goes through
:func:`host_clock` and is ``better="info"``: reported in the JSON,
never compared against a baseline (single-run walls spread 18-32% on a
shared box; ``perfbench/`` is the contract that speaks about host time).
Exact claims are not metrics at all: they are :func:`pin` /
:func:`check` assertions inside the scenario, so ``python -m repro.bench
run`` and ``pytest benchmarks/`` fail on them in the same words.
"""

from __future__ import annotations

import time

from repro.backends.instrument import CountingBackend
from repro.backends.simfs_backend import SimBackend
from repro.bench.results import Metric
from repro.fs.simfs import SimFS

KiB = 1024

#: Common geometry: one FS block per chunk keeps the files small while
#: still exercising every alignment and accounting path.
FSBLK = 4 * KiB
CHUNKSIZE = 4 * KiB
PAYLOAD = 64

#: Grid sizes (tasks / writers) that carry the ``ci-grid`` tag.
CI_GRID_COUNTS = frozenset((4096, 16384))


def pin(actual, expected, what: str) -> None:
    """First-principles exactness assertion (no baseline ever sees drift)."""
    if actual != expected:
        raise AssertionError(f"{what}: expected exactly {expected}, got {actual}")


def check(ok: bool, what: str) -> None:
    """A qualitative claim of the paper (ordering, floor, budget) that must hold."""
    if not ok:
        raise AssertionError(what)


def host_clock(value: float, unit: str = "s") -> Metric:
    """A host-clock reading: reported, never gated."""
    return Metric(value, unit, "info")


def grid_tags(suite: str, plane: str, family: str, ci: bool) -> tuple[str, ...]:
    tags = (suite, plane, family)
    return (*tags, "ci-grid") if ci else tags


def sim_backend() -> SimBackend:
    return SimBackend(SimFS(blocksize_override=FSBLK))


def counting_backend() -> CountingBackend:
    return CountingBackend(sim_backend())


def payload(rank: int, nbytes: int) -> bytes:
    """The deterministic per-rank payload every byte-verifying suite writes."""
    return bytes((rank * 31 + i) % 256 for i in range(nbytes))


def write_cycle(backend, ntasks, engine, *, nfiles=1, collectors=None,
                chunksize=CHUNKSIZE, payload_bytes=PAYLOAD, path="/coll.sion",
                payloads=None):
    """One open/write/close cycle (collective iff ``collectors``).

    Rank ``r`` writes ``payloads[r]`` if given, else :func:`payload`'s.
    Returns ``(wall_s, (start_of_data, metablock2_offset))``.
    """
    from repro.simmpi import run_spmd
    from repro.sion import paropen

    def program(comm):
        f = paropen(
            path, "w", comm, chunksize=chunksize, fsblksize=FSBLK,
            nfiles=nfiles, backend=backend, collectors=collectors,
        )
        f.fwrite(payload(comm.rank, payload_bytes) if payloads is None
                 else payloads[comm.rank])
        f.parclose()
        return (f.layout.start_of_data, f.mb1.metablock2_offset)

    t0 = time.perf_counter()
    out = run_spmd(ntasks, program, engine=engine)
    return time.perf_counter() - t0, out[0]
