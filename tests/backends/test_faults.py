"""FaultPlan / FaultInjectingBackend semantics against raw backends.

These tests exercise the fault layer in isolation (no SION traffic):
trigger exactness, budget accounting, blackout semantics, state sharing
across rank views, and pickling for the process engine.
"""

from __future__ import annotations

import pickle

import pytest

from repro.backends import FaultInjectingBackend, FaultPlan
from repro.backends.faults import (
    CORRUPT_CHUNK_HEADER,
    DROP_METABLOCK2,
    KILL_RANK,
    TEAR_SCATTER,
)
from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend
from repro.errors import FaultInjectedError
from repro.fs.simfs import SimFS
from repro.sion.constants import MAGIC_MB2
from repro.sion.format import ShadowHeader
from tests.conftest import TEST_BLKSIZE


def _faulty(plan=None):
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    fs.mkdir("/scratch")
    return FaultInjectingBackend(SimBackend(fs), plan)


# -- plan construction -------------------------------------------------------


def test_plan_is_immutable_and_chainable():
    base = FaultPlan()
    chained = base.kill_rank(3, after_bytes=100).drop_metablock2("/x")
    assert base.faults == ()
    assert [f.kind for f in chained.faults] == [KILL_RANK, DROP_METABLOCK2]
    assert chained.of_kind(KILL_RANK)[0].rank == 3
    assert chained.of_kind(TEAR_SCATTER) == ()


def test_plan_rejects_negative_parameters():
    with pytest.raises(ValueError):
        FaultPlan().kill_rank(-1)
    with pytest.raises(ValueError):
        FaultPlan().kill_rank(0, after_bytes=-5)
    with pytest.raises(ValueError):
        FaultPlan().tear_scatter("/x", keep_fragments=-1)


def test_empty_plan_is_transparent():
    be = _faulty()
    with be.open("/scratch/a", "w+b") as f:
        f.pwrite(0, b"hello")
        assert f.pread(0, 10) == b"hello"
    assert be.exists("/scratch/a")
    assert be.file_size("/scratch/a") == 5


# -- kill_rank ---------------------------------------------------------------


def test_kill_rank_fires_only_for_attributed_rank():
    be = _faulty(FaultPlan().kill_rank(1, after_bytes=0))
    with be.open("/scratch/a", "w+b") as f:
        f.pwrite(0, b"unattributed traffic never dies")
    v0 = be.for_rank(0)
    with v0.open("/scratch/b", "w+b") as f:
        f.pwrite(0, b"rank 0 is not targeted")
    v1 = be.for_rank(1)
    f = v1.open("/scratch/c", "w+b")
    with pytest.raises(FaultInjectedError):
        f.pwrite(0, b"x")
    f.close()


def test_kill_rank_budget_is_cumulative_and_bytes_never_move():
    be = _faulty(FaultPlan().kill_rank(0, after_bytes=10)).for_rank(0)
    f = be.open("/scratch/a", "w+b")
    f.pwrite(0, b"12345")      # 5 of 10
    f.pwrite(5, b"12345")      # 10 of 10 (exactly at budget: allowed)
    with pytest.raises(FaultInjectedError):
        f.pwrite(10, b"!")     # 11th byte crosses
    f.close()
    # The crossing write moved nothing.
    assert be.file_size("/scratch/a") == 10


def test_kill_rank_charges_reads_too():
    be = _faulty(FaultPlan().kill_rank(0, after_bytes=8))
    with be.open("/scratch/a", "w+b") as f:
        f.pwrite(0, b"0123456789abcdef")
    view = be.for_rank(0)
    f = view.open("/scratch/a", "rb")
    assert f.pread(0, 8) == b"01234567"
    with pytest.raises(FaultInjectedError):
        f.pread(8, 1)
    f.close()


def test_for_rank_views_share_trigger_state():
    be = _faulty(FaultPlan().kill_rank(2, after_bytes=6))
    a = be.for_rank(2)
    b = be.for_rank(2)
    fa = a.open("/scratch/a", "w+b")
    fb = b.open("/scratch/b", "w+b")
    fa.pwrite(0, b"1234")       # 4 of 6, charged on the shared counter
    with pytest.raises(FaultInjectedError):
        fb.pwrite(0, b"123")    # 7 of 6 via the sibling view
    fa.close()
    fb.close()


def test_kill_rank_determinism_same_plan_same_trigger_point():
    for _ in range(3):
        be = _faulty(FaultPlan().kill_rank(0, after_bytes=7)).for_rank(0)
        f = be.open("/scratch/a", "w+b")
        written = 0
        with pytest.raises(FaultInjectedError):
            for _ in range(100):
                f.pwrite(written, b"abc")
                written += 3
        f.close()
        assert written == 6  # always dies on the third 3-byte write


# -- tear_scatter ------------------------------------------------------------


def test_tear_scatter_persists_only_kept_fragments():
    be = _faulty(FaultPlan().tear_scatter("/scratch/a", keep_fragments=2))
    f = be.open("/scratch/a", "w+b")
    with pytest.raises(FaultInjectedError):
        f.scatter_write([(0, b"AAAA"), (8, b"BBBB"), (16, b"CCCC")])
    f.close()
    g = be.open("/scratch/a", "rb")
    assert g.pread(0, 4) == b"AAAA"
    assert g.pread(8, 4) == b"BBBB"
    assert be.file_size("/scratch/a") == 12  # third fragment never landed
    g.close()


def test_tear_scatter_respects_rank_filter():
    plan = FaultPlan().tear_scatter("/scratch/a", keep_fragments=0, rank=1)
    be = _faulty(plan)
    f0 = be.for_rank(0).open("/scratch/a", "w+b")
    assert f0.scatter_write([(0, b"ok")]) == 2
    f0.close()
    f1 = be.for_rank(1).open("/scratch/a", "r+b")
    with pytest.raises(FaultInjectedError):
        f1.scatter_write([(4, b"no")])
    f1.close()


# -- drop_metablock2 ---------------------------------------------------------


def test_drop_metablock2_swallows_mb2_and_everything_after():
    be = _faulty(FaultPlan().drop_metablock2("/scratch/a"))
    f = be.open("/scratch/a", "w+b")
    f.pwrite(0, b"payload!")
    assert f.pwrite(8, MAGIC_MB2 + b"metadata") == len(MAGIC_MB2 + b"metadata")
    assert f.pwrite(0, b"patched offset") == 14   # blackout: swallowed too
    assert f.scatter_write([(0, b"late")]) == 4   # every later write
    f.flush()
    f.close()                                  # close still reaches the store
    assert be.file_size("/scratch/a") == 8     # only the payload landed
    with be.open("/scratch/a", "rb") as g:
        assert g.pread(0, 100) == b"payload!"


def test_drop_metablock2_is_path_keyed():
    be = _faulty(FaultPlan().drop_metablock2("/scratch/other"))
    with be.open("/scratch/a", "w+b") as f:
        f.pwrite(0, MAGIC_MB2 + b"fine here")
    assert be.file_size("/scratch/a") == len(MAGIC_MB2) + 9


# -- corrupt_chunk_header ----------------------------------------------------


def test_corrupt_chunk_header_targets_one_block():
    plan = FaultPlan().corrupt_chunk_header("/scratch/a", ltask=1, block=2)
    be = _faulty(plan)
    hit = ShadowHeader(ltask=1, block=2, written=99).encode()
    miss = ShadowHeader(ltask=1, block=3, written=99).encode()
    f = be.open("/scratch/a", "w+b")
    f.pwrite(0, hit)
    f.pwrite(len(hit), miss)
    f.close()
    g = be.open("/scratch/a", "rb")
    assert ShadowHeader.decode(g.pread(0, len(hit))) is None
    survivor = ShadowHeader.decode(g.pread(len(hit), len(miss)))
    assert survivor is not None and survivor.block == 3
    g.close()
    assert plan.of_kind(CORRUPT_CHUNK_HEADER)[0].ltask == 1


def test_corrupt_chunk_header_leaves_plain_payloads_alone():
    be = _faulty(FaultPlan().corrupt_chunk_header("/scratch/a", 0, 0))
    with be.open("/scratch/a", "w+b") as f:
        f.pwrite(0, b"no shadow magic here, long enough to decode")
    g = be.open("/scratch/a", "rb")
    assert g.pread(0, 9) == b"no shadow"
    g.close()


# -- pickling (process engine) -----------------------------------------------


def test_faulting_local_backend_pickles_with_plan_intact(tmp_path):
    plan = FaultPlan().kill_rank(1, after_bytes=4)
    be = FaultInjectingBackend(
        LocalBackend(blocksize_override=TEST_BLKSIZE), plan
    )
    clone = pickle.loads(pickle.dumps(be))
    assert clone.plan == plan
    view = clone.for_rank(1)
    f = view.open(str(tmp_path / "a"), "w+b")
    with pytest.raises(FaultInjectedError):
        f.pwrite(0, b"12345")
    f.close()


def test_faulting_sim_backend_refuses_to_pickle():
    be = _faulty(FaultPlan().kill_rank(0))
    with pytest.raises(TypeError):
        pickle.dumps(be)
