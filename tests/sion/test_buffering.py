"""Write coalescing: byte-identical output, fewer stream calls."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SionUsageError
from repro.sion import open_rank, paropen
from repro.sion.buffering import CoalescingWriter
from repro.simmpi import run_spmd
from tests.conftest import TEST_BLKSIZE


class MemStream:
    """Minimal fwrite sink for unit tests."""

    def __init__(self):
        self.data = bytearray()
        self.calls = 0

    def fwrite(self, data):
        self.calls += 1
        self.data.extend(data)
        return len(data)


class CountedStream:
    """Forwards each fwrite to ``stream``, counting the calls."""

    def __init__(self, stream):
        self.stream = stream
        self.calls = 0

    def fwrite(self, data):
        self.calls += 1
        return self.stream.fwrite(data)


def test_small_writes_coalesce():
    sink = MemStream()
    w = CoalescingWriter(sink, buffer_size=100)
    for i in range(30):
        w.write(bytes([i]) * 10)  # 300 bytes in 10-byte dribbles
    w.close()
    assert bytes(sink.data) == b"".join(bytes([i]) * 10 for i in range(30))
    assert sink.calls == 3  # 300 bytes / 100-byte buffer


def test_large_write_bypasses_buffer():
    sink = MemStream()
    w = CoalescingWriter(sink, buffer_size=64)
    w.write(b"z" * 1000)
    assert sink.calls == 1
    assert w.pending == 0
    w.close()
    assert bytes(sink.data) == b"z" * 1000


def test_mixed_sizes_preserve_order():
    sink = MemStream()
    w = CoalescingWriter(sink, buffer_size=32)
    w.write(b"a" * 10)
    w.write(b"b" * 100)  # buffered path (buffer non-empty)
    w.write(b"c" * 5)
    w.close()
    assert bytes(sink.data) == b"a" * 10 + b"b" * 100 + b"c" * 5


def test_flush_pushes_partial_tail():
    sink = MemStream()
    w = CoalescingWriter(sink, buffer_size=100)
    w.write(b"x" * 30)
    assert w.pending == 30
    w.flush()
    assert w.pending == 0
    assert bytes(sink.data) == b"x" * 30


def test_close_is_idempotent_and_final():
    sink = MemStream()
    w = CoalescingWriter(sink, buffer_size=10)
    w.write(b"ab")
    w.close()
    w.close()
    with pytest.raises(SionUsageError):
        w.write(b"more")


def test_context_manager():
    sink = MemStream()
    with CoalescingWriter(sink, buffer_size=10) as w:
        w.write(b"ctx")
    assert bytes(sink.data) == b"ctx"


def test_invalid_buffer_size():
    with pytest.raises(SionUsageError):
        CoalescingWriter(MemStream(), buffer_size=0)


def test_reduces_calls_on_real_multifile(any_backend):
    """End to end: 1000 tiny records, two orders fewer stream calls."""
    backend, base = any_backend
    path = f"{base}/coal.sion"
    record = b"event-record-0123456789"  # 23 bytes

    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        counted = CountedStream(f)
        with CoalescingWriter(counted, buffer_size=4096) as w:
            for _ in range(1000):
                w.write(record)
        f.parclose()
        return counted.calls

    calls = run_spmd(2, task)
    assert all(c <= 6 for c in calls)  # 23 KB / 4 KB buffer
    for rank in range(2):
        with open_rank(path, rank, backend=backend) as rf:
            assert rf.read_all() == record * 1000


@settings(max_examples=40, deadline=None)
@given(
    pieces=st.lists(st.binary(max_size=300), max_size=40),
    bufsize=st.integers(1, 256),
)
def test_equivalence_property(pieces, bufsize):
    """Coalesced output is byte-identical to direct writes."""
    direct = MemStream()
    for p in pieces:
        direct.fwrite(p)

    coalesced = MemStream()
    with CoalescingWriter(coalesced, buffer_size=bufsize) as w:
        for p in pieces:
            w.write(p)

    assert bytes(direct.data) == bytes(coalesced.data)
    # Every flush carries bufsize bytes except possibly the last one and
    # oversized bypass writes, so the call count is bounded by the data.
    total = sum(len(p) for p in pieces)
    assert coalesced.calls <= total // bufsize + len(pieces) + 1
