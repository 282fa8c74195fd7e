"""Backend handles across process boundaries: pickle round trips.

The process SPMD engine ships backends and open handles into rank
processes by pickling (spawn) or inheritance (fork).  These tests pin
the portable-handle contract: ``LocalRawFile`` reopens by path (it has
no file pointer to restore) and never re-truncates; ``LocalBackend`` and
``CountingBackend`` round-trip; ``SimBackend`` refuses loudly; and
``IOStats`` keeps its cross-process identity token so counter deltas
find their way home.
"""

import pickle

import pytest

from repro.backends.instrument import (
    CountingBackend,
    IOStats,
    apply_stats_deltas,
    snapshot_live_stats,
    stats_deltas,
)
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
    assert clone.stats.token == cb.stats.token
    # The clone's activity can be merged back into the original by token,
    # which is exactly what the proc engine does at join.
    f = clone.open(str(tmp_path / "y.bin"), "w+")
    f.pwrite(0, b"12345678")
    f.close()
    assert cb.snapshot()["bytes_written"] == 0
    delta = stats_deltas(
        {cb.stats.token: cb.stats.raw_state()},
        {cb.stats.token: clone.stats.raw_state()},
    )
    apply_stats_deltas(delta)
    assert cb.snapshot()["bytes_written"] == 8
    assert cb.snapshot()["opens"] == 1


def test_stats_delta_roundtrip_is_exact():
    stats = IOStats()
    before = snapshot_live_stats()
    stats.count("pwrite", 3)
    stats.count_read_bytes(100, requests=2)
    stats.note_payloads([b"abcd"])
    deltas = dict(stats_deltas(before, snapshot_live_stats()))
    assert deltas[stats.token]["calls"] == {"pwrite": 3}
    assert deltas[stats.token]["bytes_read"] == 100
    assert deltas[stats.token]["fragments_read"] == 2
    assert deltas[stats.token]["bytes_written"] == 4
    assert deltas[stats.token]["fragments_written"] == 1


def test_stats_deltas_skip_idle_objects():
    idle = IOStats()
    before = snapshot_live_stats()
    assert all(token != idle.token for token, _ in stats_deltas(before, snapshot_live_stats()))
