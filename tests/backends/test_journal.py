"""The call journal: what a row holds, rank views, pickling, the count fold.

:class:`~repro.backends.journal.Journal` appends one row per ``open`` and
per ``RawFile`` call.  A write row keeps its payload by the store's piece
rule — the view itself when it is one view of an immutable ``bytes``,
else one ``bytes`` copy — so no application buffer is pinned.
:class:`~repro.backends.instrument.CountingBackend` is a journal whose
counts are a fold over the rows, which keep no payloads.  The failure and crash-state rules
built on the rows are in ``test_faults.py``.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.backends.instrument import CountingBackend
from repro.backends.journal import Journal
from repro.backends.localfs import LocalBackend
from repro.simmpi import run_spmd
from repro.sion import paropen
from tests.conftest import TEST_BLKSIZE, fresh_sim


def test_one_row_per_call_with_offsets_and_fragment_sizes():
    be = Journal(fresh_sim())
    with be.for_rank(3).open("/scratch/a", "w+b") as f:
        f.pwrite(4, b"abcd")
        f.scatter_write([(16, b"xy"), (8, b"pqr")])
        assert f.gather_read([(8, 3), (16, 5)]) == [b"pqr", b"xy"]
        assert f.pread(0, 2) == bytes(2)
        f.flush()
    assert [(r.seq, r.rank, r.path, r.op) for r in be.rows] == [
        (i, 3, "/scratch/a", op) for i, op in enumerate(
            ["open", "scatter_write", "scatter_write", "gather_read", "gather_read",
             "flush", "close"]
        )
    ]
    opened, pw, sw, gr, pr = be.rows[:5]
    assert opened.mode == "w+b"
    assert (pw.offsets, pw.sizes, pw.payload) == ((4,), (4,), (b"abcd",))
    # A scatter row is the list as the caller gave it; a read's sizes are
    # what came back.
    assert (sw.offsets, sw.sizes) == ((16, 8), (2, 3))
    assert [bytes(p) for p in sw.payload] == [b"xy", b"pqr"]
    assert (gr.offsets, gr.sizes, gr.payload) == ((8, 16), (3, 2), ())
    assert (pr.offsets, pr.sizes) == ((0,), (2,))


def test_payloads_share_bytes_and_copy_everything_else():
    be = Journal(fresh_sim())
    whole = b"0123456789"
    staged = bytearray(b"staging!")
    arr = np.arange(4, dtype=np.uint8)
    with be.open("/scratch/a", "w+b") as f:
        f.scatter_write([(0, whole), (20, memoryview(whole)[2:5]), (40, staged), (60, arr)])
    shared, view, copied, from_array = be.rows[1].payload
    assert shared is whole
    assert type(view) is memoryview and view.obj is whole and bytes(view) == b"234"
    assert type(copied) is bytes and copied == b"staging!"
    assert type(from_array) is bytes and from_array == bytes(range(4))
    # No application buffer is pinned: the caller may resize its own.
    staged.extend(b" grown")


def test_rank_views_share_one_row_list():
    be = Journal(fresh_sim())
    views = [be.for_rank(r) for r in range(3)]
    for r, view in enumerate(views):
        with view.open(f"/scratch/{r}", "w+b") as f:
            f.pwrite(0, bytes([r]))
    assert all(v.rows is be.rows for v in views)
    assert [r.rank for r in be.rows if r.op == "scatter_write"] == [0, 1, 2]


def test_journal_over_local_backend_pickles_without_rows(tmp_path):
    be = Journal(LocalBackend(blocksize_override=TEST_BLKSIZE))
    with be.open(str(tmp_path / "a"), "w+b") as f:
        f.pwrite(0, memoryview(b"abc")[1:])  # a kept view: never pickled
    clone = pickle.loads(pickle.dumps(be.for_rank(1)))
    assert clone.log.token == be.log.token and clone.rank == 1
    assert clone.rows == [] and len(be.rows) == 3
    with clone.open(str(tmp_path / "a"), "rb") as f:
        assert f.pread(0, 8) == b"bc"


def test_counting_backend_is_a_fold_over_the_rows():
    cb = CountingBackend(fresh_sim())
    assert isinstance(cb, Journal)
    payload = bytes(100)
    cb.track_source(payload)
    with cb.open("/scratch/a", "w+b") as f:
        f.scatter_write([(0, memoryview(payload)[:40]), (64, b"copied")])
        f.gather_read([(0, 8), (64, 6)])
    cb.clear_sources()
    with cb.open("/scratch/a", "r+b") as f:
        f.pwrite(200, b"untracked")
    assert cb.rows[1].copied == 1 and cb.rows[-2].copied is None
    # No count reads a payload, so a counter keeps none.
    assert all(r.payload == () for r in cb.rows)
    assert cb.calls() == {"open": 2, "scatter_write": 2, "gather_read": 1, "close": 2}
    assert cb.snapshot() == {
        "data_write_calls": 2, "data_read_calls": 1, "seeks": 0, "opens": 2,
        "fragments_written": 3, "fragments_read": 2, "tracked_fragments": 2,
        "copied_fragments": 1, "bytes_written": 40 + 6 + 9, "bytes_read": 14,
    }


def _write_own(comm, journal, base):
    with journal.for_rank(comm.rank).open(f"{base}/{comm.rank}", "w+b") as f:
        f.pwrite(0, bytes([comm.rank]) * (comm.rank + 1))
    return True


def test_rank_process_rows_join_the_parent_journal(tmp_path):
    be = Journal(LocalBackend(blocksize_override=TEST_BLKSIZE))
    assert run_spmd(3, _write_own, be, str(tmp_path), engine="proc") == [True] * 3
    assert sorted((r.rank, r.op) for r in be.rows) == sorted(
        (rank, op) for rank in range(3) for op in ("open", "scatter_write", "close")
    )
    assert [r.seq for r in be.rows] == list(range(9))
    assert {r.payload for r in be.rows if r.op == "scatter_write"} == {
        (bytes([rank]) * (rank + 1),) for rank in range(3)
    }


def _sion_write(comm, backend, path, collectsize):
    f = paropen(path, "w", comm, chunksize=1000, fsblksize=1024, nfiles=2,
                collectsize=collectsize, shadow=True, buddy=True, backend=backend)
    f.fwrite(bytes([comm.rank % 251]) * 1500)  # two chunks
    f.parclose()


def _sion_read(comm, backend, path):
    f = paropen(path, "r", comm, partitioned=True, backend=backend)
    data = f.read_all()
    f.parclose()
    return len(data)


def test_a_sion_cycle_crosses_the_boundary_as_the_four_calls():
    """Direct and collective writes (shadow headers, buddy replicas) and a
    partitioned read record only ``open`` and the four ``RawFile`` calls:
    metablocks, patches and shadow headers are fragment lists too, and the
    totals are what they were when those went down as ``pwrite`` /
    ``pread``."""
    cb = CountingBackend(fresh_sim())
    run_spmd(8, _sion_write, cb, "/scratch/d.sion", None, engine="bulk")
    run_spmd(8, _sion_write, cb, "/scratch/c.sion", 4, engine="bulk")
    assert run_spmd(2, _sion_read, cb, "/scratch/c.sion", engine="bulk") == [6000, 6000]
    assert set(cb.calls()) <= {"open", "scatter_write", "gather_read", "flush", "close"}
    snap = cb.snapshot()
    assert (snap["data_write_calls"], snap["data_read_calls"]) == (80, 18)
    assert (snap["fragments_written"], snap["fragments_read"]) == (152, 32)
