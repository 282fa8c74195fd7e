"""Formatted-text layer over task streams."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SionUsageError
from repro.sion import open_rank, paropen
from repro.sion.buffering import CoalescingWriter
from repro.sion.text import TextReader, TextWriter
from repro.simmpi import run_spmd
from tests.conftest import TEST_BLKSIZE


def _write_lines(path, backend, lines_per_rank, **paropen_kw):
    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend,
                    **paropen_kw)
        w = TextWriter(f)
        for line in lines_per_rank(comm.rank):
            w.write_line(line)
        f.parclose()
        return w.lines_written

    return run_spmd(3, task)


def test_lines_roundtrip(any_backend):
    backend, base = any_backend
    path = f"{base}/log.sion"

    def lines(rank):
        return [f"rank {rank} line {i}" for i in range(50)]

    counts = _write_lines(path, backend, lines)
    assert counts == [50, 50, 50]
    for rank in range(3):
        with open_rank(path, rank, backend=backend) as rf:
            assert TextReader(rf).read_lines() == lines(rank)


def test_lines_crossing_chunk_boundaries(any_backend):
    """A single long line spans several 512-byte chunks and reassembles."""
    backend, base = any_backend
    path = f"{base}/long.sion"
    long_line = "x" * 2000

    def lines(rank):
        return [f"head-{rank}", long_line, f"tail-{rank}"]

    _write_lines(path, backend, lines)
    with open_rank(path, 1, backend=backend) as rf:
        assert TextReader(rf).read_lines() == ["head-1", long_line, "tail-1"]


def test_printf_formatting(any_backend):
    backend, base = any_backend
    path = f"{base}/fmt.sion"

    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        w = TextWriter(f)
        w.printf("step={} energy={:.3f}", 7, -1.23456)
        w.printf("rank={rank}", rank=comm.rank)
        f.parclose()

    run_spmd(2, task)
    with open_rank(path, 1, backend=backend) as rf:
        assert TextReader(rf).read_lines() == ["step=7 energy=-1.235", "rank=1"]


def test_iteration_protocol(any_backend):
    backend, base = any_backend
    path = f"{base}/iter.sion"
    _write_lines(path, backend, lambda r: [f"{r}:{i}" for i in range(10)])
    with open_rank(path, 0, backend=backend) as rf:
        assert [ln for ln in TextReader(rf)] == [f"0:{i}" for i in range(10)]


def test_unterminated_tail_returned_as_line(any_backend):
    backend, base = any_backend
    path = f"{base}/tail.sion"

    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        w = TextWriter(f)
        w.write_line("complete")
        w.write_text("unterminated fragment")
        f.parclose()

    run_spmd(1, task)
    with open_rank(path, 0, backend=backend) as rf:
        assert TextReader(rf).read_lines() == ["complete", "unterminated fragment"]


def test_unicode_content(any_backend):
    backend, base = any_backend
    path = f"{base}/uni.sion"

    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        TextWriter(f).write_line("Jülich — μ=3.14 ≠ π")
        f.parclose()

    run_spmd(1, task)
    with open_rank(path, 0, backend=backend) as rf:
        assert TextReader(rf).read_line() == "Jülich — μ=3.14 ≠ π"


def test_custom_newline(any_backend):
    backend, base = any_backend
    path = f"{base}/crlf.sion"

    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        w = TextWriter(f, newline="\r\n")
        w.write_line("one")
        w.write_line("two")
        f.parclose()

    run_spmd(1, task)
    with open_rank(path, 0, backend=backend) as rf:
        assert TextReader(rf, newline="\r\n").read_lines() == ["one", "two"]


def test_compressed_text(any_backend):
    """Text layer composes with transparent compression."""
    backend, base = any_backend
    path = f"{base}/ztext.sion"
    _write_lines(path, backend, lambda r: [f"{r} {i}" for i in range(30)],
                 compress=True)
    with open_rank(path, 2, backend=backend) as rf:
        assert TextReader(rf).read_lines() == [f"2 {i}" for i in range(30)]


def test_embedded_newline_rejected_in_write_line():
    class FakeStream:
        def fwrite(self, data):
            return len(data)

    w = TextWriter(FakeStream())
    with pytest.raises(SionUsageError):
        w.write_line("two\nlines")


def test_empty_newline_rejected():
    class FakeStream:
        pass

    with pytest.raises(SionUsageError):
        TextWriter(FakeStream(), newline="")
    with pytest.raises(SionUsageError):
        TextReader(FakeStream(), newline="")


@settings(max_examples=25, deadline=None)
@given(
    lines=st.lists(
        st.text(
            alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
            max_size=80,
        ),
        max_size=30,
    )
)
def test_roundtrip_property(lines):
    import tempfile

    from repro.backends.localfs import LocalBackend

    backend = LocalBackend(blocksize_override=TEST_BLKSIZE)
    path = tempfile.mktemp(suffix=".sion")

    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        w = TextWriter(f)
        for line in lines:
            w.write_line(line)
        f.parclose()

    run_spmd(1, task)
    with open_rank(path, 0, backend=backend) as rf:
        assert TextReader(rf).read_lines() == list(lines)


def test_text_writer_over_a_coalescing_writer_roundtrips(any_backend):
    """The coalescer speaks ``fwrite``, so it can sit under a TextWriter:
    the lines read back unchanged, in fewer backend writes than lines."""
    backend, base = any_backend
    path = f"{base}/coalesced.sion"

    def lines(rank):
        return [f"rank {rank} record {i}" for i in range(200)]

    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        with CoalescingWriter(f, buffer_size=300) as cw:
            w = TextWriter(cw)
            for line in lines(comm.rank):
                w.write_line(line)
        f.parclose()
        return cw.flushes, cw.bytes_written, w.bytes_written

    for flushes, coalesced, written in run_spmd(3, task):
        assert 0 < flushes < 200
        assert coalesced == written
    for rank in range(3):
        with open_rank(path, rank, backend=backend) as rf:
            assert TextReader(rf).read_lines() == lines(rank)
