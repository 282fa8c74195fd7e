"""Nothing a run creates outlives ``run_spmd``.

A checkpoint library is called every few timesteps for the life of a job,
so whatever one cycle leaves behind is multiplied by the cycle count.  The
census below walks ``gc.get_objects()`` after a run has returned or raised
and finds no bulk-engine machinery and no :class:`SimFileHandle` that still
pins a file — on both in-process engines, through every open path, and
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
import weakref

import pytest

from repro.backends.journal import Journal
from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend
from repro.errors import FaultInjectedError, SimMPIError, SpmdWorkerError
from repro.fs.simfs import SimFileHandle, SimFS
from repro.simmpi import bulk, run_spmd
from repro.sion import paropen, recover_multifile
from repro.sion.buffering import CoalescingWriter
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
    """Engine objects, and handles still holding a file, alive right now."""
    return [
        o for o in gc.get_objects()
        if type(o) in ENGINE_TYPES
        or (type(o) is SimFileHandle and o._data is not None)
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
    if outcome == "deadlock":
        stray = comm.split(0, comm.rank)
        if comm.rank == 1:
            stray.barrier()  # nobody else joins it
    if outcome == "timeout" and comm.rank == 5:
        time.sleep(1.5)  # holds the loop far past the 0.2 s stall bound


def _cycle(engine: str, open_path: str, outcome: str) -> list | None:
    """One run; a successful one hands back what its ranks returned."""
    opts = OPEN_PATHS[open_path]
    # In collective mode only collectors touch the store, and rank 0 is
    # one: it dies at its second call (a write into the file it opened).
    fail_at = (0, 1) if outcome == "kill_rank" else None
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    clean = Journal(SimBackend(fs))
    armed = Journal(SimBackend(fs), fail_at)

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
    # but pin no file ...
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


class _Logged:
    """A value a rank logs; weakly referenceable."""


@pytest.mark.parametrize("nprocs", [3, 40])  # exceptions dict, dense array
def test_bulk_rank_values_die_with_the_rank(nprocs):
    """A value only one rank logged is freed when that rank returns — the
    first value a column receives too; a value every rank logged (the
    bcast's) lives until the run ends."""
    refs: dict = {}
    seen: dict = {}
    sender, checker = nprocs - 2, nprocs - 1

    def body(comm):
        # Every rank logs the root's object: a uniform column.
        refs.setdefault("shared", weakref.ref(comm.bcast(_Logged() if comm.rank == 0 else None)))
        # Rank 0 passes the bcast first, so its object is the column's
        # first value and the others' objects are their own entries.
        refs[comm.rank] = weakref.ref(comm.exec_once(_Logged))
        comm.barrier()  # every rank has logged (at 40: spilled) before any returns
        # Only the root waits in a gather, and every other rank returns
        # right after its deposit: rank 0 and the sender have returned by
        # the time the checker's gather completes.
        comm.gather(None, root=checker)
        if comm.rank == checker:
            gc.collect()
            seen.update(
                first=refs[0](), finished=refs[sender](), running=refs[checker](),
                shared=refs["shared"](),
            )

    run_spmd(nprocs, body, engine="bulk")
    assert seen["first"] is None
    assert seen["finished"] is None
    assert isinstance(seen["running"], _Logged)
    assert isinstance(seen["shared"], _Logged)
    del seen["running"], seen["shared"]
    gc.collect()
    assert refs["shared"]() is None


def test_bulk_first_value_dies_with_its_rank_when_some_ranks_never_log_it():
    """A dense column holds its first value for its depositor alone, not
    in the slots of ranks that never log there."""
    nprocs, loggers = 40, 30  # 29 other entries: the column spills to dense
    checker = nprocs - 1  # not a logger
    refs: dict = {}
    seen: dict = {}

    def body(comm):
        if comm.rank < loggers:
            value = comm.exec_once(_Logged)
            if comm.rank == 0:
                refs["first"] = weakref.ref(value)
            del value
        comm.barrier()  # every logger has logged before any returns
        comm.gather(None, root=checker)  # rank 0 has returned by its end
        if comm.rank == checker:
            gc.collect()
            seen["first"] = refs["first"]()

    run_spmd(nprocs, body, engine="bulk")
    assert seen["first"] is None


@pytest.mark.parametrize("nprocs", [3, 40])
def test_bulk_value_two_ranks_logged_lives_until_both_finish(nprocs):
    """Ranks 0 and 1 log the same object; the column's first depositor
    returning does not free what rank 1 still replays."""
    box = {"pair": _Logged()}
    ref = weakref.ref(box["pair"])
    seen: dict = {}
    checker = nprocs - 1

    def body(comm):
        comm.exec_once(lambda: box["pair"] if comm.rank < 2 else _Logged())
        comm.barrier()  # both have logged it before either returns
        box.pop("pair", None)
        pair = comm.split(0 if comm.rank in (1, checker) else None, key=comm.rank)
        comm.gather(None, root=checker)  # rank 0 has returned by its end
        if comm.rank == checker:
            gc.collect()
            seen["alive"] = ref() is not None
        if pair is not None:
            # Rank 1 parks until the checker deposits: only the log holds
            # the pair meanwhile.
            pair.bcast(None, root=1)

    run_spmd(nprocs, body, engine="bulk")
    assert seen["alive"]
    gc.collect()
    assert ref() is None


def test_bulk_read_log_holds_views_not_copies():
    """A rank's logged reads cost views of the store's ``bytes``, not the
    bytes again.  Eight ranks each write 1 MiB (3/4 as 12345-byte views of
    one ``bytes``, the rest as 200-byte records through a
    ``CoalescingWriter``) and read it back with 12345-byte ``fread``s.  A
    read ``parclose`` does not park, so on a rank's final execution every
    ``fread`` runs afresh and its ``gather_read`` result is logged until
    the rank returns: a copy per read would keep the whole 1 MiB."""
    nprocs, per, piece, record = 8, 1 << 20, 12345, 200
    bulk_bytes = per * 3 // 4
    blob = bytes((i * 7) % 251 for i in range(per + nprocs * 4096))
    fs = SimFS(blocksize_override=64 << 10)
    backend = SimBackend(fs)
    growth: dict[int, int] = {}

    def body(comm):
        src = memoryview(blob)[comm.rank * 4096 : comm.rank * 4096 + per]
        f = paropen("/r.sion", "w", comm, chunksize=256 << 10, nfiles=2, backend=backend)
        for o in range(0, bulk_bytes, piece):
            f.fwrite(src[o : min(o + piece, bulk_bytes)])
        writer = CoalescingWriter(f, 64 << 10)
        for o in range(bulk_bytes, per, record):
            writer.write(src[o : o + record])
        writer.close()
        f.parclose()
        comm.barrier()  # the set is sealed for every reader
        f = paropen("/r.sion", "r", comm, backend=backend)
        nbytes, before = 0, tracemalloc.get_traced_memory()[0]
        while not f.feof():
            data = f.fread(piece)
            assert data == src[nbytes : nbytes + len(data)]
            nbytes += len(data)
        f.parclose()
        del data
        # Overwritten on every execution: the final one is what stays.
        growth[comm.rank] = tracemalloc.get_traced_memory()[0] - before
        return nbytes

    tracemalloc.start()
    try:
        assert run_spmd(nprocs, body, engine="bulk") == [per] * nprocs
    finally:
        tracemalloc.stop()
    assert len(growth) == nprocs
    assert max(growth.values()) <= 128 << 10, growth


def _checkpoint_cycle(ntasks: int = 512, nreaders: int = 64) -> None:
    """Collective write with replicas, a lost file, recovery, m != n restart."""
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
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

PROC_CELLS = ("success", "raise", "os_exit", "large", "kill_rank")


def _proc_program(comm, cell, journal, base):
    if cell == "kill_rank":
        # Rank 1 dies at its call 1, with the file it opened still open.
        with journal.for_rank(comm.rank).open(f"{base}/{comm.rank}", "w+b") as f:
            f.pwrite(0, b"x")
    if cell == "raise" and comm.rank == 1:
        raise RuntimeError("rank 1 gives up")
    if cell == "os_exit" and comm.rank == 1:
        os._exit(17)  # dies without reporting or aborting
    if cell == "large":
        # 4 MiB from a non-hub root: the hub relays it over the mailboxes.
        return len(comm.bcast(bytes(4 << 20) if comm.rank == 1 else None, root=1))
    return comm.allreduce(comm.rank)


def _proc_cycle(cell: str, base: str) -> None:
    journal = Journal(LocalBackend(blocksize_override=TEST_BLKSIZE), (1, 1))
    run = lambda: run_spmd(3, _proc_program, cell, journal, base, engine="proc", timeout=30.0)  # noqa: E731
    if cell in ("raise", "os_exit", "kill_rank"):
        with pytest.raises(SpmdWorkerError) as info:
            run()
        # Only the failures: the traceback pins the run's queues (and fds).
        failures = {rank: type(exc) for rank, exc in info.value.failures.items()}
        del info
        if cell == "kill_rank":
            assert failures == {1: FaultInjectedError}
    else:
        assert run() == [4 << 20 if cell == "large" else 3] * 3


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm and /proc")
@pytest.mark.parametrize("cell", PROC_CELLS)
def test_proc_run_leaves_no_child_segment_or_descriptor(cell, tmp_path):
    segments = set(os.listdir("/dev/shm"))
    _proc_cycle(cell, str(tmp_path))  # the first run also starts the shared resource tracker
    fds = len(os.listdir("/proc/self/fd"))
    _proc_cycle(cell, str(tmp_path))
    assert multiprocessing.active_children() == []
    assert set(os.listdir("/dev/shm")) - segments == set()
    assert len(os.listdir("/proc/self/fd")) == fds
