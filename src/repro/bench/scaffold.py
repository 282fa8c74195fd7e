"""Shared scaffolding of the grid suites (``scale``, ``collective``,
``repartition``, ``serve``, ``resilience``): the common container
geometry, the in-scenario pin helpers, the metric policy, and the one
write/read cycle (:func:`write_cycle` / :func:`read_cycle`) every
byte-verifying scenario runs.

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


def metadata_reads(nfiles: int) -> int:
    """Fixed metadata read calls of a read open: rank 0's set load
    decodes metablock 1 + metablock 2 of each physical file once (8
    positioned reads, each a one-request ``gather_read``)."""
    return 8 * nfiles


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
    """The deterministic per-rank payload every byte-verifying suite
    writes: byte ``i`` is ``(31 * rank + i) % 256``."""
    start = rank * 31 % 256
    period = bytes(range(start, 256)) + bytes(range(start))
    return (period * (nbytes // 256 + 1))[:nbytes]


def write_cycle(backend, ntasks, engine, *, path="/coll.sion",
                payload_bytes=PAYLOAD, payloads=None, **open_kw):
    """One ``paropen`` -> ``fwrite`` -> ``parclose`` cycle of ``ntasks`` writers.

    Rank ``r`` writes ``payloads[r]`` if given, else :func:`payload`'s.
    ``open_kw`` goes to ``paropen`` over the common geometry
    (``chunksize=CHUNKSIZE``, ``fsblksize=FSBLK``).
    Returns ``(wall_s, (start_of_data, metablock2_offset))``.
    """
    from repro.simmpi import run_spmd
    from repro.sion import paropen

    open_kw = {"chunksize": CHUNKSIZE, "fsblksize": FSBLK, **open_kw}

    def program(comm):
        f = paropen(path, "w", comm, backend=backend, **open_kw)
        f.fwrite(payload(comm.rank, payload_bytes) if payloads is None
                 else payloads[comm.rank])
        f.parclose()
        return (f.layout.start_of_data, f.mb1.metablock2_offset)

    t0 = time.perf_counter()
    out = run_spmd(ntasks, program, engine=engine)
    return time.perf_counter() - t0, out[0]


def read_cycle(backend, nwriters, nreaders, engine, *, path="/coll.sion",
               payload_bytes=PAYLOAD, **open_kw):
    """Read back a :func:`write_cycle` set with ``nreaders`` ranks.

    ``open_kw`` goes to ``paropen``.  Each reader checks inside its rank
    that it read exactly the :func:`payload` bytes of its writers: writer
    ``r`` for reader ``r`` of a matched read, its
    :meth:`~repro.sion.mapping.ReadPartition.balanced` slice of a
    partitioned one.  Returns ``(wall_s, bytes read per reader)``.
    """
    from repro.simmpi import run_spmd
    from repro.sion import paropen
    from repro.sion.mapping import ReadPartition

    part = ReadPartition.balanced(nwriters, nreaders)

    def program(comm):
        f = paropen(path, "r", comm, backend=backend, **open_kw)
        data = f.read_all()
        f.parclose()
        expected = b"".join(
            payload(w, payload_bytes) for w in part.writers_of(comm.rank)
        )
        if data != expected:
            raise AssertionError(
                f"reader {comm.rank}/{nreaders} diverged "
                f"({len(data)} vs {len(expected)} bytes)"
            )
        return len(data)

    t0 = time.perf_counter()
    out = run_spmd(nreaders, program, engine=engine)
    return time.perf_counter() - t0, out
