"""Backend handles across process boundaries: pickle round trips.

The process SPMD engine ships backends and open handles into rank
processes by pickling (spawn) or inheritance (fork).  These tests pin
the portable-handle contract: ``LocalRawFile`` reopens by path (it has
no file pointer to restore) and never re-truncates; ``LocalBackend`` and
``CountingBackend`` round-trip; ``SimBackend`` refuses loudly; and a
journal keeps its cross-process identity token, so the rows a rank
process appends find their way home.
"""

import pickle

import pytest

from repro.backends.instrument import CountingBackend
from repro.backends.journal import adopt, marks, rows_since
from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_local_rawfile_roundtrip_preserves_bytes(tmp_path):
    path = tmp_path / "data.bin"
    f = LocalBackend().open(str(path), "w+")
    f.pwrite(0, b"hello world")

    clone = _roundtrip(f)
    # Independent descriptor, same file — and crucially the 'w' mode did
    # NOT re-truncate on reopen.
    assert clone.pread(0, 11) == b"hello world"
    clone.pwrite(0, b"HELLO")
    assert f.pread(0, 11) == b"HELLO world"
    f.close()
    clone.close()


def test_local_rawfile_readonly_mode_survives(tmp_path):
    path = tmp_path / "ro.bin"
    path.write_bytes(b"abcdef")
    f = LocalBackend().open(str(path), "r")
    clone = _roundtrip(f)
    assert clone.pread(2, 2) == b"cd"
    with pytest.raises(OSError):
        clone.pwrite(0, b"x")  # reopened read-only, like the original
    f.close()
    clone.close()


def test_closed_rawfile_refuses_to_pickle(tmp_path):
    path = tmp_path / "x.bin"
    f = LocalBackend().open(str(path), "w")
    f.close()
    with pytest.raises(TypeError, match="closed"):
        pickle.dumps(f)


def test_local_backend_roundtrips_with_override():
    be = _roundtrip(LocalBackend(blocksize_override=4096))
    assert be.blocksize_override == 4096


def test_simbackend_is_in_process_only():
    with pytest.raises(TypeError, match="in-process-only"):
        pickle.dumps(SimBackend())


def test_counting_backend_keeps_stats_token(tmp_path):
    cb = CountingBackend(LocalBackend())
    clone = _roundtrip(cb)
    assert clone.log.token == cb.log.token
    # The clone's rows join the original by token, which is exactly what
    # the proc engine does at join.
    f = clone.open(str(tmp_path / "y.bin"), "w+")
    f.pwrite(0, b"12345678")
    f.close()
    assert cb.snapshot()["bytes_written"] == 0
    adopt([(clone.log.token, clone.rows)])
    assert cb.snapshot()["bytes_written"] == 8
    assert cb.snapshot()["opens"] == 1


def test_stats_delta_roundtrip_is_exact():
    cb = CountingBackend(SimBackend())
    with cb.open("/a", "w+b") as f:
        f.pwrite(0, b"first")
    before = marks()
    with cb.open("/a", "r+b") as f:
        f.scatter_write([(0, b"ab"), (8, b"cd")])
        f.gather_read([(0, 2), (8, 2)])
    shipped = dict(rows_since(before))[cb.log.token]
    assert [r.op for r in shipped] == ["open", "scatter_write", "gather_read", "close"]
    assert [r.seq for r in shipped] == [3, 4, 5, 6]
    # Shipped payloads are plain bytes: a kept view does not pickle.
    assert pickle.loads(pickle.dumps(shipped)) == shipped
    other = CountingBackend(SimBackend())
    adopt([(other.log.token, shipped)])
    assert [r.seq for r in other.rows] == [0, 1, 2, 3]
    assert other.snapshot() == {
        "data_write_calls": 1, "data_read_calls": 1, "seeks": 0, "opens": 1,
        "fragments_written": 2, "fragments_read": 2, "tracked_fragments": 0,
        "copied_fragments": 0, "bytes_written": 4, "bytes_read": 4,
    }


def test_stats_deltas_skip_idle_objects():
    idle = CountingBackend(SimBackend())
    before = marks()
    assert all(token != idle.log.token for token, _ in rows_since(before))
