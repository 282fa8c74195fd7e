"""Failures fired through the SION layer: engines × open paths.

The in-flight contract: rank *r* raising at its call *k*
(``Journal(inner, fail_at=(r, k))``) surfaces as a clean
:class:`SpmdWorkerError` carrying :class:`FaultInjectedError` for exactly
that rank (never a hang, never a mangled traceback), identically under
the ``threads`` and ``bulk`` engines (and ``proc``, over the real FS),
and across the direct, collective, serial, and partitioned open paths.
The call to fail is read off a clean recording of the same cycle.

The silent failures are crash states cut from one recorded cycle: a
close that lost its metablock-2 writes, and that state with one shadow
header garbled.  ``recover_multifile`` repairs them on a fresh store.
"""

from __future__ import annotations

import pytest

from repro.backends.journal import Journal, replay, without_close_writes
from repro.backends.localfs import LocalBackend
from repro.errors import FaultInjectedError, SpmdWorkerError
from repro.sion import paropen, recover_multifile, serial
from repro.simmpi import run_spmd
from repro.utils.verify import verify_multifile
from tests.conftest import TEST_BLKSIZE, flip_shadow_magic, fresh_sim

ENGINES = ("threads", "bulk")


def _payload(rank: int, n: int) -> bytes:
    return bytes((rank * 13 + i) % 256 for i in range(n))


def _write_task(path, be, size=700, **kw):
    def task(comm):
        f = paropen(path, "w", comm, chunksize=256, shadow=True,
                    backend=be.for_rank(comm.rank), **kw)
        f.fwrite(_payload(comm.rank, size))
        f.parclose()

    return task


def _call_of(nprocs: int, path: str, rank: int, op: str, **kw) -> int:
    """``rank``'s call number of its first ``op`` in a clean recording."""
    be = Journal(fresh_sim())
    run_spmd(nprocs, _write_task(path, be, **kw), engine="bulk")
    mine = [row.op for row in be.rows if row.rank == rank]
    return mine.index(op)


# -- rank r raises at its call k: engines and open paths ------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_kill_rank_direct_path(engine):
    k = _call_of(4, "/scratch/k.sion", 2, "scatter_write")
    be = Journal(fresh_sim(), (2, k))
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(4, _write_task("/scratch/k.sion", be), engine=engine)
    assert set(exc_info.value.failures) == {2}
    assert isinstance(exc_info.value.failures[2], FaultInjectedError)


@pytest.mark.parametrize("engine", ENGINES)
def test_kill_rank_collective_path(engine):
    # Only collectors do physical I/O in collective mode: fail rank 0, the
    # collector of the first group, at its wave write.
    k = _call_of(4, "/scratch/kc.sion", 0, "scatter_write", collectsize=2)
    be = Journal(fresh_sim(), (0, k))
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(4, _write_task("/scratch/kc.sion", be, collectsize=2), engine=engine)
    assert isinstance(exc_info.value.failures[0], FaultInjectedError)


def test_kill_rank_proc_engine(tmp_path):
    """The journal over a LocalBackend pickles; the failure fires in a real child."""
    be = Journal(LocalBackend(blocksize_override=TEST_BLKSIZE), (1, 1))
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, _write_task(str(tmp_path / "kp.sion"), be), engine="proc")
    assert set(exc_info.value.failures) == {1}
    assert isinstance(exc_info.value.failures[1], FaultInjectedError)


def test_kill_rank_serial_path():
    """Serial opens are single-process: the failure surfaces directly."""
    be = Journal(fresh_sim(), (0, 0))
    run_spmd(2, _write_task("/scratch/s.sion", Journal(be.inner)))
    with pytest.raises(FaultInjectedError):
        serial.open("/scratch/s.sion", "r", backend=be.for_rank(0))


@pytest.mark.parametrize("engine", ENGINES)
def test_kill_rank_partitioned_read_path(engine):
    """Read-side calls count too: a reader rank dies at its read."""
    be = Journal(fresh_sim(), (1, 1))
    run_spmd(4, _write_task("/scratch/p.sion", Journal(be.inner)))

    def read_task(comm):
        f = paropen("/scratch/p.sion", "r", comm, partitioned=True,
                    backend=be.for_rank(comm.rank))
        data = f.read_all()
        f.parclose()
        return data

    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(2, read_task, engine=engine)
    assert set(exc_info.value.failures) == {1}
    assert isinstance(exc_info.value.failures[1], FaultInjectedError)


@pytest.mark.parametrize("engine", ENGINES)
def test_tear_scatter_direct_path(engine):
    """A rank's vectored chunk write fails mid-cycle, before the store."""
    k = _call_of(3, "/scratch/t.sion", 1, "scatter_write")
    be = Journal(fresh_sim(), (1, k))
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(3, _write_task("/scratch/t.sion", be), engine=engine)
    assert isinstance(exc_info.value.failures[1], FaultInjectedError)


@pytest.mark.parametrize("engine", ENGINES)
def test_tear_scatter_collective_path(engine):
    """A collection wave's vectored write fails on the collector."""
    k = _call_of(4, "/scratch/tc.sion", 2, "scatter_write", collectsize=2)
    be = Journal(fresh_sim(), (2, k))
    with pytest.raises(SpmdWorkerError) as exc_info:
        run_spmd(4, _write_task("/scratch/tc.sion", be, collectsize=2), engine=engine)
    assert isinstance(exc_info.value.failures[2], FaultInjectedError)


# -- crash states + recovery ---------------------------------------------------


def _torn_close(path: str, nprocs: int = 4) -> tuple[Journal, list]:
    """A recorded cycle and its rows less every close-time write."""
    be = Journal(fresh_sim())
    run_spmd(nprocs, _write_task(path, be))
    return be, without_close_writes(be.rows)


def test_drop_metablock2_then_shadow_recovery():
    """The state a torn close leaves fails verify; recovery repairs it."""
    path = "/scratch/d.sion"
    _, rows = _torn_close(path)
    state = fresh_sim()
    replay(rows, state)
    assert not verify_multifile(path, backend=state).ok
    report = recover_multifile(path, backend=state)
    assert report.files_recovered == 1
    assert report.bytes_recovered == 4 * 700
    with serial.open(path, "r", backend=state) as sf:
        for r in range(4):
            assert sf.read_task(r) == _payload(r, 700)


def test_corrupt_chunk_header_shortens_recovered_chain():
    """A torn chain loses exactly the blocks at and after the damage.

    With shadow headers each 512-byte chunk holds 480 payload bytes, so
    a 700-byte stream is blocks of 480 + 220: garbling (ltask=1,
    block=1) costs task 1 its 220-byte tail and nothing else.
    """
    path = "/scratch/c.sion"
    _, rows = _torn_close(path)
    state = fresh_sim()
    replay(flip_shadow_magic(rows, path, 1, 1), state)
    report = recover_multifile(path, backend=state)
    assert report.bytes_recovered == 4 * 700 - 220
    with serial.open(path, "r", backend=state) as sf:
        assert sf.read_task(1) == _payload(1, 700)[:480]
        assert sf.read_task(2) == _payload(2, 700)


# -- cross-engine determinism --------------------------------------------------


def test_same_plan_same_failing_ranks_across_engines():
    observed = {}
    for engine in ENGINES:
        be = Journal(fresh_sim(), (3, 2))
        with pytest.raises(SpmdWorkerError) as exc_info:
            run_spmd(5, _write_task("/scratch/x.sion", be), engine=engine)
        observed[engine] = {
            r
            for r, e in exc_info.value.failures.items()
            if isinstance(e, FaultInjectedError)
        }
    assert observed["threads"] == observed["bulk"] == {3}
