"""The fault model at the storage boundary, against raw backends.

Two kinds of failure are left, both built on the call journal
(:mod:`repro.backends.journal`): in flight, rank *r* raises at its call
*k* (``Journal(inner, fail_at=(r, k))``); after the fact, a crash state
cut from recorded rows — a prefix, a write torn at a fragment boundary,
a close that lost its metadata writes, a garbled shadow header.  These
tests exercise both in isolation (no SION traffic): trigger exactness,
call accounting, what a cut state holds, rank views, and pickling for
the process engine.
"""

from __future__ import annotations

import pickle

import pytest

from repro.backends.journal import Journal, crash_states, replay, without_close_writes
from repro.backends.localfs import LocalBackend
from repro.errors import FaultInjectedError
from repro.sion.constants import MAGIC_MB2
from repro.sion.format import ShadowHeader
from tests.conftest import TEST_BLKSIZE, flip_shadow_magic, fresh_sim


def _journal(fail_at=None) -> Journal:
    return Journal(fresh_sim(), fail_at)


def _state(rows, label: str):
    """The store ``label`` of :func:`crash_states` leaves behind."""
    target = fresh_sim()
    replay(dict(crash_states(rows))[label], target)
    return target


# -- the (rank, call) pair -----------------------------------------------------


def test_plan_rejects_negative_parameters():
    with pytest.raises(ValueError):
        _journal((-1, 0))
    with pytest.raises(ValueError):
        _journal((0, -5))


def test_empty_plan_is_transparent():
    be = _journal()
    with be.open("/scratch/a", "w+b") as f:
        f.pwrite(0, b"hello")
        assert f.pread(0, 10) == b"hello"
    assert be.exists("/scratch/a")
    assert be.file_size("/scratch/a") == 5


# -- rank r raises at its call k -----------------------------------------------


def test_kill_rank_fires_only_for_attributed_rank():
    be = _journal((1, 1))  # rank 1's open is its call 0, the pwrite call 1
    with be.open("/scratch/a", "w+b") as f:
        f.pwrite(0, b"unattributed traffic never dies")
    with be.for_rank(0).open("/scratch/b", "w+b") as f:
        f.pwrite(0, b"rank 0 is not targeted")
    f = be.for_rank(1).open("/scratch/c", "w+b")
    with pytest.raises(FaultInjectedError, match="rank 1 failed at its call 1"):
        f.pwrite(0, b"x")


def test_kill_rank_budget_is_cumulative_and_bytes_never_move():
    be = _journal((0, 3)).for_rank(0)
    f = be.open("/scratch/a", "w+b")  # call 0
    f.pwrite(0, b"12345")             # call 1
    f.pwrite(5, b"12345")             # call 2
    with pytest.raises(FaultInjectedError):
        f.pwrite(10, b"!")            # call 3 never reaches the store
    # The failed call appended no row and did not advance the count: a
    # re-execution (the bulk engine's replay) fails again.
    assert [r.op for r in be.rows] == ["open", "scatter_write", "scatter_write"]
    with pytest.raises(FaultInjectedError):
        f.pwrite(10, b"!")
    # A rank that failed stays failed: every later call of it raises.
    with pytest.raises(FaultInjectedError):
        f.close()
    assert be.file_size("/scratch/a") == 10


def test_a_failed_rank_still_closes_its_handles(tmp_path):
    """A close moves no bytes: the dead rank's close raises, but the
    descriptor under it is closed, not left to garbage collection."""
    be = Journal(LocalBackend(blocksize_override=TEST_BLKSIZE), (0, 1)).for_rank(0)
    f = be.open(str(tmp_path / "a"), "w+b")
    with pytest.raises(FaultInjectedError):
        f.pwrite(0, b"x")
    with pytest.raises(FaultInjectedError):
        f.close()
    assert f._inner._f.closed
    assert [r.op for r in be.rows] == ["open"]


def test_kill_rank_charges_reads_too():
    be = _journal((0, 2))
    with be.open("/scratch/a", "w+b") as f:
        f.pwrite(0, b"0123456789abcdef")
    f = be.for_rank(0).open("/scratch/a", "rb")
    assert f.pread(0, 8) == b"01234567"
    with pytest.raises(FaultInjectedError):
        f.gather_read([(8, 1)])


def test_for_rank_views_share_trigger_state():
    be = _journal((2, 3))
    a, b = be.for_rank(2), be.for_rank(2)
    fa = a.open("/scratch/a", "w+b")  # call 0
    fb = b.open("/scratch/b", "w+b")  # call 1, counted on the shared log
    fa.pwrite(0, b"1234")             # call 2
    with pytest.raises(FaultInjectedError):
        fb.pwrite(0, b"123")          # call 3 via the sibling view
    assert a.rows is b.rows is be.rows


def test_kill_rank_determinism_same_plan_same_trigger_point():
    for _ in range(3):
        be = _journal((0, 3)).for_rank(0)
        f = be.open("/scratch/a", "w+b")
        written = 0
        with pytest.raises(FaultInjectedError):
            for _ in range(100):
                f.pwrite(written, b"abc")
                written += 3
        assert written == 6  # always dies on the third write (call 3)


def test_tear_scatter_respects_rank_filter():
    be = _journal((1, 1))
    with be.for_rank(0).open("/scratch/a", "w+b") as f0:
        assert f0.scatter_write([(0, b"ok")]) == 2
    f1 = be.for_rank(1).open("/scratch/a", "r+b")
    with pytest.raises(FaultInjectedError):
        f1.scatter_write([(4, b"no"), (8, b"no")])
    assert be.file_size("/scratch/a") == 2  # nothing of the failed call landed


# -- crash states cut from the rows ----------------------------------------------


def test_tear_scatter_persists_only_kept_fragments():
    be = _journal()
    with be.open("/scratch/a", "w+b") as f:
        f.scatter_write([(16, b"CCCC"), (0, b"AAAA"), (8, b"BBBB")])
    # Row 1 is the write: list order keeps CCCC first, offset order AAAA.
    listed = _state(be.rows, "tear[1:list:2]")
    with listed.open("/scratch/a", "rb") as g:
        assert g.gather_read([(0, 4), (8, 4), (16, 4)]) == [b"AAAA", bytes(4), b"CCCC"]
    by_offset = _state(be.rows, "tear[1:offset:2]")
    with by_offset.open("/scratch/a", "rb") as g:
        assert g.pread(0, 12) == b"AAAA\0\0\0\0BBBB"
    assert by_offset.file_size("/scratch/a") == 12  # third fragment never landed


def test_every_prefix_and_tear_is_one_state():
    be = _journal()
    with be.open("/scratch/a", "w+b") as f:
        f.scatter_write([(0, b"A"), (4, b"B"), (2, b"C")])
        f.pwrite(8, b"D")
    labels = [label for label, _ in crash_states(be.rows)]
    # 4 rows (open, scatter, pwrite, close) -> 5 prefixes; the 3-fragment
    # write tears after 1 and 2 fragments, in list and in offset order.
    assert labels == [f"prefix[{i}]" for i in range(5)] + [
        "tear[1:list:1]", "tear[1:list:2]", "tear[1:offset:1]", "tear[1:offset:2]",
    ]


def test_drop_metablock2_swallows_mb2_and_everything_after():
    be = _journal()
    with be.open("/scratch/a", "w+b") as f:
        f.pwrite(0, b"payload!")
        f.pwrite(8, MAGIC_MB2 + b"metadata")
        f.pwrite(0, b"patched offset")  # the metablock-1 patch after it
        f.flush()
    target = fresh_sim()
    replay(without_close_writes(be.rows), target)
    assert target.file_size("/scratch/a") == 8  # only the payload landed
    with target.open("/scratch/a", "rb") as g:
        assert g.pread(0, 100) == b"payload!"


def test_drop_metablock2_is_path_keyed():
    be = _journal()
    a = be.open("/scratch/a", "w+b")
    b = be.open("/scratch/b", "w+b")
    a.pwrite(0, MAGIC_MB2 + b"gone")
    b.pwrite(0, b"b's own write stays")
    a.pwrite(0, b"patch")
    b.pwrite(0, MAGIC_MB2 + b"fine here")
    b.pwrite(0, b"xx")
    target = fresh_sim()
    kept = without_close_writes(be.rows)
    assert [r.path for r in kept if r.op == "scatter_write"] == ["/scratch/b"]
    replay(kept, target)
    assert target.file_size("/scratch/a") == 0
    assert target.file_size("/scratch/b") == 19


def test_corrupt_chunk_header_targets_one_block():
    be = _journal()
    hit = ShadowHeader(ltask=1, block=2, written=99).encode()
    miss = ShadowHeader(ltask=1, block=3, written=99).encode()
    with be.open("/scratch/a", "w+b") as f:
        f.pwrite(0, hit)
        f.pwrite(len(hit), miss)
    target = fresh_sim()
    replay(flip_shadow_magic(be.rows, "/scratch/a", 1, 2), target)
    with target.open("/scratch/a", "rb") as g:
        assert ShadowHeader.decode(g.pread(0, len(hit))) is None
        survivor = ShadowHeader.decode(g.pread(len(hit), len(miss)))
    assert survivor is not None and survivor.block == 3


def test_corrupt_chunk_header_leaves_plain_payloads_alone():
    be = _journal()
    with be.open("/scratch/a", "w+b") as f:
        f.pwrite(0, b"no shadow magic here, long enough to decode")
    assert flip_shadow_magic(be.rows, "/scratch/a", 0, 0) == be.rows


# -- pickling (process engine) -------------------------------------------------


def test_faulting_local_backend_pickles_with_plan_intact(tmp_path):
    be = Journal(LocalBackend(blocksize_override=TEST_BLKSIZE), (1, 0))
    clone = pickle.loads(pickle.dumps(be))
    assert clone.log.fail_at == (1, 0)
    with pytest.raises(FaultInjectedError):
        clone.for_rank(1).open(str(tmp_path / "a"), "w+b")
    assert not (tmp_path / "a").exists()  # the open never reached the store


def test_faulting_sim_backend_refuses_to_pickle():
    with pytest.raises(TypeError):
        pickle.dumps(_journal((0, 0)))
