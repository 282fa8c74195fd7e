"""Nothing a run creates outlives ``run_spmd``.

A checkpoint library is called every few timesteps for the life of a job,
so whatever one cycle leaves behind is multiplied by the cycle count.  The
census below walks ``gc.get_objects()`` after a run has returned or raised
and finds no bulk-engine machinery and no :class:`SimFileHandle` that still
pins an inode — on both in-process engines, through every open path, and
whether the run succeeded, lost a rank, or deadlocked.  The bulk engine
cannot leave this to the collector: its dense columns and wave slots are
object ndarrays the cycle collector does not traverse (see the lifetime
contract in :mod:`repro.simmpi.bulk`).  What the process engine could
leave behind lives outside the interpreter — rank processes, pipe
descriptors, ``/dev/shm`` entries — and is counted there.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
import tracemalloc

import pytest

from repro.backends import FaultInjectingBackend, FaultPlan
from repro.backends.simfs_backend import SimBackend
from repro.errors import FaultInjectedError, SimMPIError, SpmdWorkerError
from repro.fs.simfs import SimFileHandle, SimFS
from repro.simmpi import bulk, run_spmd
from repro.sion import paropen, recover_multifile
from repro.sion.mapping import physical_path
from tests.conftest import TEST_BLKSIZE

ENGINE_TYPES = (
    bulk._BulkEngine, bulk._World, bulk.BulkComm,
    bulk._Program, bulk._Col, bulk._Wave,
)
NRANKS = 64
NREADERS = 24
PATH = "/scratch/h.sion"

OPEN_PATHS = {
    "direct-1": {"nfiles": 1},
    "direct-2": {"nfiles": 2},
    "collective-2": {"nfiles": 2, "collectsize": 8},
    "partitioned": {"nfiles": 2},  # written by 64, read back by 24
}
#: Outcome -> the failure it must surface as (``None``: the run returns).
OUTCOMES = {
    "success": None,
    "raise": RuntimeError,
    "kill_rank": FaultInjectedError,
    "deadlock": SimMPIError,  # bulk only: threads wait out the timeout
    "timeout": SimMPIError,  # bulk only: a stalled loop, not a parked world
}


def _survivors() -> list[object]:
    """Engine objects, and handles still holding an inode, alive right now."""
    return [
        o for o in gc.get_objects()
        if type(o) in ENGINE_TYPES
        or (type(o) is SimFileHandle and o._inode is not None)
    ]


def _new_since(before: list[object]) -> list[object]:
    """Survivors that were not there ``before`` — a list the caller keeps
    alive, so that no new object can reuse one of its ids."""
    known = {id(o) for o in before}
    return [o for o in _survivors() if id(o) not in known]


def _payload(rank: int) -> bytes:
    return bytes((rank * 7 + i) % 256 for i in range(300))


def _misbehave(comm, outcome: str) -> None:
    """The scripted failure, fired while the rank still holds its file."""
    if outcome == "raise" and comm.rank == 3:
        raise RuntimeError("rank 3 gives up")
    if outcome == "deadlock" and comm.rank == 1:
        comm.recv(source=0, tag=99)  # nobody sends it
    if outcome == "timeout" and comm.rank == 5:
        time.sleep(1.5)  # holds the loop far past the 0.2 s stall bound


def _cycle(engine: str, open_path: str, outcome: str) -> list | None:
    """One run; a successful one hands back what its ranks returned."""
    opts = OPEN_PATHS[open_path]
    # In collective mode only collectors touch the store, and rank 0 is one.
    plan = FaultPlan().kill_rank(0, after_bytes=64) if outcome == "kill_rank" else FaultPlan()
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    fs.mkdir("/scratch")
    clean = FaultInjectingBackend(SimBackend(fs), FaultPlan())
    armed = FaultInjectingBackend(SimBackend(fs), plan)

    def write(comm, be, outcome):
        f = paropen(PATH, "w", comm, chunksize=256, backend=be.for_rank(comm.rank), **opts)
        f.fwrite(_payload(comm.rank))
        _misbehave(comm, outcome)
        f.parclose()
        return f

    def read(comm):
        f = paropen(PATH, "r", comm, partitioned=True, backend=armed.for_rank(comm.rank))
        data = f.read_all()
        _misbehave(comm, outcome)
        f.parclose()
        return len(data)

    how = {"engine": engine}
    if outcome == "timeout":
        how.update(timeout=0.2, nworkers=2)
    if open_path == "partitioned":
        run_spmd(NRANKS, write, clean, "success", engine=engine)
        run = lambda: run_spmd(NREADERS, read, **how)  # noqa: E731
    else:
        run = lambda: run_spmd(NRANKS, write, armed, outcome, **how)  # noqa: E731
    if outcome == "success":
        return run()
    with pytest.raises(SpmdWorkerError) as info:
        run()
    kinds = {type(exc) for exc in info.value.failures.values()}
    assert OUTCOMES[outcome] in kinds, info.value
    if outcome in ("deadlock", "timeout"):
        word = "deadlock" if outcome == "deadlock" else "stalled"
        assert any(word in str(exc) for exc in info.value.failures.values())
    return None


def _cells():
    for engine in ("threads", "bulk"):
        for open_path in OPEN_PATHS:
            for outcome in OUTCOMES:
                if outcome == "timeout" and open_path != "collective-2":
                    continue  # 1.5 s each; one open path covers the teardown
                if outcome in ("deadlock", "timeout") and engine != "bulk":
                    continue
                yield engine, open_path, outcome


@pytest.mark.parametrize("engine,open_path,outcome", list(_cells()))
def test_nothing_survives_a_run(engine, open_path, outcome):
    gc.collect()
    before = _survivors()
    held = _cycle(engine, open_path, outcome)
    gc.collect()
    # The closed files the ranks returned keep their communicators alive,
    # but pin no inode ...
    assert not [o for o in _new_since(before) if type(o) is SimFileHandle]
    del held
    gc.collect()
    # ... and once they are dropped, nothing of the run is left.
    left = _new_since(before)
    assert not left, sorted({type(o).__name__ for o in left})


def test_bulk_success_needs_no_collection():
    """The engine severs its own structures: a clean run leaves nothing
    even with the cycle collector switched off."""
    gc.collect()
    before = _survivors()
    gc.disable()
    try:
        _cycle("bulk", "collective-2", "success")
        left = _new_since(before)
    finally:
        gc.enable()
    assert not left, sorted({type(o).__name__ for o in left})


def _checkpoint_cycle(ntasks: int = 512, nreaders: int = 64) -> None:
    """Collective write with replicas, a lost file, recovery, m != n restart."""
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    fs.mkdir("/scratch")
    backend = SimBackend(fs)

    def write(comm):
        f = paropen(PATH, "w", comm, chunksize=512, nfiles=4, collectsize=64,
                    shadow=True, buddy=True, backend=backend)
        f.fwrite(_payload(comm.rank))
        f.parclose()

    def restart(comm):
        f = paropen(PATH, "r", comm, partitioned=True, collectsize=8, backend=backend)
        data = f.read_all()
        f.parclose()
        return len(data)

    run_spmd(ntasks, write, engine="bulk", nworkers=1)
    backend.unlink(physical_path(PATH, 1))
    assert recover_multifile(PATH, backend=backend).files_rebuilt_from_buddy == 1
    assert sum(run_spmd(nreaders, restart, engine="bulk", nworkers=1)) == 300 * ntasks


def test_checkpoint_cycles_do_not_accumulate():
    """Cycle 5 ends with the memory cycle 2 ended with (within 1 MiB)."""
    _checkpoint_cycle()  # cycle 1 fills the caches, untraced
    current = []
    tracemalloc.start()
    try:
        for _ in range(2, 6):
            _checkpoint_cycle()
            gc.collect()
            current.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert current[-1] - current[0] < 1 << 20, current


# --------------------------------------------------------------------------
# The process engine: no child, /dev/shm entry or descriptor is left.

PROC_CELLS = ("success", "raise", "os_exit", "large")


def _proc_program(comm, cell):
    if cell == "raise" and comm.rank == 1:
        raise RuntimeError("rank 1 gives up")
    if cell == "os_exit" and comm.rank == 1:
        os._exit(17)  # dies without reporting or aborting
    if cell == "large":
        # 4 MiB from a non-hub root: the hub relays it over the mailboxes.
        return len(comm.bcast(bytes(4 << 20) if comm.rank == 1 else None, root=1))
    return comm.allreduce(comm.rank)


def _proc_cycle(cell: str) -> None:
    run = lambda: run_spmd(3, _proc_program, cell, engine="proc", timeout=30.0)  # noqa: E731
    if cell in ("raise", "os_exit"):
        with pytest.raises(SpmdWorkerError):
            run()
    else:
        assert run() == [4 << 20 if cell == "large" else 3] * 3


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm and /proc")
@pytest.mark.parametrize("cell", PROC_CELLS)
def test_proc_run_leaves_no_child_segment_or_descriptor(cell):
    segments = set(os.listdir("/dev/shm"))
    _proc_cycle(cell)  # the first run also starts the shared resource tracker
    fds = len(os.listdir("/proc/self/fd"))
    _proc_cycle(cell)
    assert multiprocessing.active_children() == []
    assert set(os.listdir("/dev/shm")) - segments == set()
    assert len(os.listdir("/proc/self/fd")) == fds
