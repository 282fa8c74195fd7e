"""Python work per rank of an open cycle, counted and pinned.

On the bulk engine a rank body re-runs from the top each time a collective
it parked on completes (:mod:`repro.simmpi.bulk`), so the Python work one
rank does is what the wall of a ``paropen`` -> ``parclose`` cycle is made
of — and unlike the wall it repeats exactly.  :func:`work_per_rank` counts,
with ``sys.setprofile``, the calls a rank body makes into named functions
of ``repro.sion`` and ``repro.simmpi``, replays included, and reports the
typical rank: the most common count (per-file masters, collectors and the
rank that completes a wave do a little more).  Comprehension and lambda
frames are not counted: Python 3.12 inlines comprehensions (PEP 709), and
the pins hold on 3.10-3.13 alike.

Every count is pinned exactly, at two world sizes: per-rank work that grew
with the task count fails here before any wall could show it, and a change
that adds work to the open path has to restate the pin.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.backends.simfs_backend import SimBackend
from repro.fs.simfs import SimFS
from repro.simmpi import run_spmd
from repro.sion import paropen

PATH = "/work.sion"
FSBLK = 1024

#: cycle -> run -> (repro.sion calls, repro.simmpi calls, executions) of
#: the typical rank.  ``collective``: K=4 with shadow headers and buddy
#: replicas; ``partitioned``/``prefetch``: n/4 readers (prefetch K=2) over
#: the ``direct-2`` container.
PINS = {
    "direct-1": {"write": (21, 55, 2), "read": (25, 27, 1)},
    "direct-2": {"write": (31, 96, 3), "read": (25, 27, 1)},
    "collective": {"write": (42, 138, 4)},
    "partitioned": {"read": (40, 26, 1)},
    "prefetch": {"read": (84, 82, 3)},
}


def work_per_rank(nprocs: int, body, *args) -> tuple[int, int, int]:
    """``(sion calls, simmpi calls, executions)`` of the typical rank."""
    code = body.__code__
    counts: dict[int, list[int]] = {}
    current: list[int] | None = None

    def profile(frame, event, arg):
        nonlocal current
        if event == "call":
            if frame.f_code is code:
                current = counts.setdefault(frame.f_locals["comm"].rank, [0, 0, 0])
                current[2] += 1
            elif current is not None and not frame.f_code.co_name.startswith("<"):
                module = frame.f_globals.get("__name__", "")
                if module.startswith("repro.sion."):
                    current[0] += 1
                elif module.startswith("repro.simmpi."):
                    current[1] += 1
        elif event == "return" and frame.f_code is code:
            current = None

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_spmd(nprocs, body, *args, engine="bulk")
    finally:
        sys.setprofile(previous)
    assert len(counts) == nprocs
    return Counter(tuple(c) for c in counts.values()).most_common(1)[0][0]


def write(comm, backend, nfiles, collectsize=None, shadow=False, buddy=False):
    f = paropen(PATH, "w", comm, chunksize=1000, fsblksize=FSBLK, nfiles=nfiles,
                collectsize=collectsize, shadow=shadow, buddy=buddy, backend=backend)
    f.fwrite(bytes([comm.rank % 251]) * 1500)  # two chunks
    f.parclose()


def read(comm, backend, partitioned=False, collectsize=None):
    f = paropen(PATH, "r", comm, partitioned=partitioned, collectsize=collectsize,
                backend=backend)
    data = f.read_all()
    f.parclose()
    return len(data)


def cycle(name: str, nprocs: int) -> dict[str, tuple[int, int, int]]:
    """Run cycle ``name`` on ``nprocs`` writers; the counts of its pinned runs."""
    backend = SimBackend(SimFS(blocksize_override=FSBLK))
    if name == "collective":
        return {"write": work_per_rank(nprocs, write, backend, 2, 4, True, True)}
    nfiles = 1 if name == "direct-1" else 2
    if name.startswith("direct"):
        return {
            "write": work_per_rank(nprocs, write, backend, nfiles),
            "read": work_per_rank(nprocs, read, backend),
        }
    run_spmd(nprocs, write, backend, nfiles, engine="bulk")
    k = 2 if name == "prefetch" else None
    return {"read": work_per_rank(nprocs // 4, read, backend, True, k)}


@pytest.mark.parametrize("nprocs", [64, 512])
@pytest.mark.parametrize("name", sorted(PINS))
def test_work_per_rank_is_pinned_and_size_free(name, nprocs):
    assert cycle(name, nprocs) == PINS[name]
