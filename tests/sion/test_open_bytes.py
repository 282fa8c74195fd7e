"""What one rank costs in memory from ``paropen`` to ``parclose``, pinned.

At 2^20 ranks in one process the per-rank Python objects of the open path,
not the data, set the memory of a cycle.  So every per-rank sequence an
open or a close keeps is one int64 column (:mod:`repro.sion.columns`),
and no wave deposit is a per-rank container.  Two kinds of rows hold that:

* structure: at 4096 ranks the open's plan objects — ``WritePlan``,
  ``ReadPlan``, ``TaskMapping``, ``ReadPartition``, ``ChunkLayout``,
  ``Metablock1``, ``Metablock2`` — hold no ``list`` or ``tuple`` of
  per-rank length;
* bytes: the ``tracemalloc`` peak of a direct write cycle and of its
  re-read on the bulk engine (the ``ctrl-16k`` shape: one file, 4 KiB
  blocks, lengths 16-3000 bytes), per rank, is pinned at 4096 ranks, and
  the cycle's total at 1024 and 4096 ranks fits a per-rank slope no
  steeper than the 4096-rank average plus a bounded fixed cost.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.backends.simfs_backend import SimBackend
from repro.fs.simfs import SimFS
from repro.simmpi import run_spmd
from repro.sion import mapping, paropen
from repro.sion.format import Metablock1, Metablock2
from repro.sion.layout import ChunkLayout
from repro.sion.mapping import ReadPartition, TaskMapping
from repro.sion.openspec import ReadPlan, WritePlan

FSBLK = 4096
PATH = "/ctrl.sion"

#: Traced peak bytes per rank at 4096 ranks: (write cycle, read cycle).
PINS = {"write": 275, "read": 145}
#: Bound on the traced bytes a cycle costs whatever its world size, the
#: intercept of the two-point fit: about 12 KiB write, 8 KiB read, and up
#: to 5 KiB more under the function-entry hook of ``tools/unexecuted.py``.
FIXED_BYTES = 32 * 1024

PLAN_TYPES = (WritePlan, ReadPlan, TaskMapping, ReadPartition, ChunkLayout, Metablock1, Metablock2)


def _payloads(n: int, seed: int = 1) -> list[bytes]:
    """``ctrl-16k``'s inputs: a seeded permutation of lengths 16..3000."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.linspace(16, 3000, n).astype(np.int64)).tolist()
    blob = rng.bytes(sum(lengths))
    ends = np.cumsum(lengths).tolist()
    return [blob[e - k : e] for e, k in zip(ends, lengths)]


def _write(comm, payloads, backend):
    p = payloads[comm.rank]
    f = paropen(PATH, "w", comm, chunksize=len(p), fsblksize=FSBLK, backend=backend)
    f.fwrite(p)
    f.parclose()
    return f.plan if comm.rank == 0 else None


def _read(comm, payloads, backend):
    f = paropen(PATH, "r", comm, backend=backend)
    data = f.read_all()
    f.parclose()
    assert data == payloads[comm.rank]
    return f.plan if comm.rank == 0 else None


# -- structure -------------------------------------------------------------


def _containers(obj, n: int, seen: set, path: str = ""):
    """``(path, type)`` of every list or tuple of length ``n`` reachable
    from ``obj`` through plan objects and the tuples they hold."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if type(obj) in (list, tuple):
        if len(obj) == n:
            yield path, type(obj).__name__
        for i, item in enumerate(obj):
            yield from _containers(item, n, seen, f"{path}[{i}]")
    elif isinstance(obj, PLAN_TYPES):
        names = list(getattr(obj, "__dict__", {}))
        names += [s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())]
        for name in names:
            yield from _containers(getattr(obj, name), n, seen, f"{path}.{name}")


def test_open_state_holds_no_per_rank_container():
    n = 4096
    payloads, backend = _payloads(n), SimBackend(SimFS(blocksize_override=FSBLK))
    wplan = run_spmd(n, _write, payloads, backend, engine="bulk")[0]
    rplan = run_spmd(n, _read, payloads, backend, engine="bulk")[0]
    part = ReadPartition.balanced(n, n)
    for obj in (wplan, rplan, part, wplan.mapping.tasks_of_file(0)):
        assert list(_containers(obj, n, set(), type(obj).__name__)) == []
    assert {type(o) for o in (wplan, rplan, part)} == {WritePlan, ReadPlan, ReadPartition}


# -- bytes -----------------------------------------------------------------


def _traced_per_rank(n: int, body, payloads, backend) -> float:
    """Traced peak bytes per rank of ``run_spmd(n, body)`` on the bulk engine.

    The interpreter's small free lists (lists, dicts, floats: at most 80
    objects each) are filled first, so an object they keep is not counted
    as the cycle's.  The caller has run the same cycle at ``n - 1`` ranks,
    so code paths are warm, and emptied the mapping caches, so the task
    mapping and read partition are built inside the window, as a cold
    open builds them.
    """
    gc.collect()
    fill = [[] for _ in range(200)], [{} for _ in range(200)], [float(i) for i in range(200)]
    del fill
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_spmd(n, body, payloads, backend, engine="bulk")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / n


def _cycle_bytes(n: int) -> dict[str, float]:
    payloads = _payloads(n)
    warm = SimBackend(SimFS(blocksize_override=FSBLK))
    run_spmd(n - 1, _write, payloads, warm, engine="bulk")
    run_spmd(n - 1, _read, payloads, warm, engine="bulk")
    backend = SimBackend(SimFS(blocksize_override=FSBLK))
    mapping._blocked_cached.cache_clear()
    mapping._balanced_partition_cached.cache_clear()
    return {
        "write": _traced_per_rank(n, _write, payloads, backend),
        "read": _traced_per_rank(n, _read, payloads, backend),
    }


@pytest.fixture(scope="module")
def cycle_bytes() -> dict[int, dict[str, float]]:
    return {n: _cycle_bytes(n) for n in (1024, 4096)}


@pytest.mark.parametrize("phase", ["write", "read"])
def test_traced_bytes_per_rank_are_pinned(cycle_bytes, phase):
    got = cycle_bytes[4096][phase]
    assert got <= PINS[phase], f"{phase}: {got:.1f} B/rank traced at 4096 ranks"


@pytest.mark.parametrize("phase", ["write", "read"])
def test_traced_bytes_per_rank_do_not_grow_with_the_world(cycle_bytes, phase):
    # Total bytes = slope * n + fixed, fitted through the two points.  A
    # per-rank cost that grows with the world steepens the slope past the
    # larger world's average and pulls the intercept below zero; a fixed
    # cost only lifts the intercept.
    small, large = cycle_bytes[1024][phase] * 1024, cycle_bytes[4096][phase] * 4096
    slope = (large - small) / (4096 - 1024)
    fixed = small - slope * 1024
    assert slope <= 1.05 * large / 4096, (phase, slope, large / 4096)
    assert abs(fixed) <= FIXED_BYTES, (phase, fixed)
