"""Fuzz :class:`SparseFile` against a plain-``bytearray`` reference model.

The store keeps one exact-size buffer per write (a piece), splices a
write that lands inside one piece in place, and splits the pieces a
wider write overlaps; it reports touching pieces as one extent.  This
suite drives random interleavings of writes (holes come from writes
past the end) and reads — directly and through the vectored
``SimFileHandle.pwritev`` / ``preadv`` — and checks every observable
against the dumbest possible model, plus the structural invariants the
store promises (sorted disjoint extents, allocation never exceeding the
logical size, and no buffer the store holds ever resized by a write).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.fs.simfs import SimFS, SparseFile

LIMIT = 4096  # keep offsets/sizes small enough for dense model comparison


class Model:
    """Reference byte store: a bytearray that zero-extends on demand."""

    def __init__(self) -> None:
        self.buf = bytearray()

    def _grow(self, end: int) -> None:
        if end > len(self.buf):
            self.buf.extend(b"\0" * (end - len(self.buf)))

    def write(self, offset: int, data: bytes) -> None:
        if not data:
            return
        self._grow(offset + len(data))
        self.buf[offset : offset + len(data)] = data

    def read(self, offset: int, n: int) -> bytes:
        end = min(offset + n, len(self.buf))
        return bytes(self.buf[offset:end]) if end > offset else b""

    @property
    def size(self) -> int:
        return len(self.buf)


def _payload(seed: int, n: int) -> bytes:
    return bytes((seed + i) % 255 + 1 for i in range(n))  # never zero bytes


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(0, LIMIT),
            st.integers(0, 600),
            st.integers(0, 250),
            st.sampled_from(["bytes", "bytearray", "memoryview"]),
        ),
        st.tuples(st.just("read"), st.integers(0, LIMIT), st.integers(0, 800)),
    ),
    min_size=1,
    max_size=40,
)


def _check_invariants(sf: SparseFile) -> None:
    extents = sf.extents()
    assert extents == sorted(extents)
    prev_end = -1
    for start, length in extents:
        assert length > 0, "empty extent retained"
        assert start > prev_end, "extents overlap or touch without coalescing"
        prev_end = start + length
    if extents:
        assert extents[-1][0] + extents[-1][1] <= sf.size
    assert sf.allocated_bytes <= sf.size


@settings(max_examples=120, deadline=None)
@given(ops=ops)
def test_sparsefile_matches_bytearray_model(ops):
    sf, model = SparseFile(), Model()
    for op in ops:
        if op[0] == "write":
            _, offset, size, seed, kind = op
            data = _payload(seed, size)
            wrapped = {
                "bytes": data,
                "bytearray": bytearray(data),
                "memoryview": memoryview(data),
            }[kind]
            assert sf.write(offset, wrapped) == len(data)
            model.write(offset, data)
        else:
            _, offset, n = op
            assert sf.read(offset, n) == model.read(offset, n)
        assert sf.size == model.size
        _check_invariants(sf)
    # Full-content equality at the end.
    assert sf.read(0, sf.size) == model.read(0, model.size)


@settings(max_examples=60, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, LIMIT), st.integers(1, 300), st.integers(0, 250)),
        min_size=1,
        max_size=20,
    )
)
def test_writer_buffer_mutation_after_write_is_invisible(writes):
    """The store must own its copy: later mutation of the caller's buffer
    (the zero-copy contract's one allowed copy point) never shows up."""
    sf, model = SparseFile(), Model()
    for offset, size, seed in writes:
        data = bytearray(_payload(seed, size))
        sf.write(offset, memoryview(data))
        model.write(offset, bytes(data))
        data[:] = b"\xee" * len(data)  # scribble over the source buffer
    assert sf.read(0, sf.size) == model.read(0, model.size)


def _held(sf: SparseFile) -> dict[int, tuple[bytearray, int]]:
    """The store's buffers by id, each kept alive so no id is reused."""
    return {id(b): (b, len(b)) for b in sf._bufs}


def _check_no_resize(sf: SparseFile, before: dict[int, tuple[bytearray, int]]) -> None:
    for b in sf._bufs:
        if id(b) in before:
            assert len(b) == before[id(b)][1], "a write resized a held buffer"
    assert sf.allocated_bytes == sum(n for _, n in sf.extents())


@settings(max_examples=120, deadline=None)
@given(ops=ops)
def test_a_write_never_resizes_a_buffer_the_store_holds(ops):
    sf = SparseFile()
    for op in ops:
        if op[0] == "write":
            _, offset, size, seed, _ = op
            before = _held(sf)
            sf.write(offset, _payload(seed, size))
            _check_no_resize(sf, before)


vectored_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("writev"),
            st.integers(0, LIMIT),
            st.lists(st.tuples(st.integers(0, 200), st.integers(0, 250)), min_size=1, max_size=6),
        ),
        st.tuples(
            st.just("readv"),
            st.integers(0, LIMIT),
            st.lists(st.integers(0, 300), min_size=1, max_size=6),
        ),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=120, deadline=None)
@given(ops=vectored_ops)
def test_vectored_handle_calls_match_bytearray_model(ops):
    fs, model = SimFS(), Model()
    fh = fs.open("/f", "w+b")
    sf = fh._data
    for op in ops:
        if op[0] == "writev":
            _, offset, spec = op
            views = [memoryview(_payload(seed, size)) for size, seed in spec]
            before = _held(sf)
            assert fh.pwritev(offset, views) == sum(v.nbytes for v in views)
            model.write(offset, b"".join(views))
            _check_no_resize(sf, before)
        else:
            _, offset, sizes = op
            got = fh.preadv(offset, sizes)
            assert len(got) == len(sizes)
            pos = offset
            for size, piece in zip(sizes, got):
                assert piece == model.read(pos, size)
                pos += size
        assert sf.size == model.size == fs.stat("/f").st_size
        _check_invariants(sf)
    assert fh.pread(0, sf.size) == model.read(0, model.size)


def test_pwritev_stores_one_contiguous_run_as_one_piece():
    fs = SimFS()
    fh = fs.open("/f", "w+b")
    fh.pwritev(100, [b"ab"] * 500)
    assert len(fh._data._bufs) == 1
    assert fs.stat("/f").allocated_bytes == 1000
    assert fh.pread(100, 1000) == b"ab" * 500
