"""Fuzz :class:`SparseFile` against a plain-``bytearray`` reference model.

The store keeps every write (every vectored run) as one piece of an
immutable ``bytes``: it shares a run that is one view of a ``bytes``
instead of copying it, copies any other run once into an exact-size
``bytes``, and cuts the pieces a later write overlaps by moving offsets,
never by changing an object; it reports touching pieces as one extent.
A read inside one piece hands out a read-only view of that ``bytes``.
This suite drives random interleavings of writes (holes come from writes
past the end) and reads — directly and through the vectored
``SimFileHandle.pwritev`` / ``preadv`` — and checks every observable
against the dumbest possible model, plus the structural invariants the
store promises (sorted disjoint extents, allocation never exceeding the
logical size, every piece object an exact ``bytes``).  The immutable
pieces get their own checks: every piece lies inside its object, a
source ``bytes`` is never changed by a later write, a view a read
handed out keeps its bytes through later writes, truncates and unlinks,
a large write from a view of one allocates next to nothing, a small
overwrite inside a large copied piece copies only itself, and a shared
piece costs a few numbers in the store's columns, not a view object.
"""

from __future__ import annotations

import random
import sys
import threading
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.backends.simfs_backend import SimBackend
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
            st.sampled_from(["bytes", "bytearray", "memoryview", "slice", "released"]),
        ),
        st.tuples(st.just("read"), st.integers(0, LIMIT), st.integers(0, 800)),
    ),
    min_size=1,
    max_size=40,
)


def _slice_of_larger(data: bytes) -> memoryview:
    """``data`` as a view into the middle of a larger ``bytes``."""
    return memoryview(b"\x11" * 7 + data + b"\x22" * 5)[7 : 7 + len(data)]


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
    assert len(sf._starts) == len(sf._offs) == len(sf._lens) == len(sf._objs)
    for off, n, obj in zip(sf._offs, sf._lens, sf._objs):
        assert type(obj) is bytes, f"a piece object is a {type(obj).__name__}"
        assert 0 <= off and off + n <= len(obj), "a piece reaches outside its object"


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
                "slice": _slice_of_larger(data),
                "released": _slice_of_larger(data),
            }[kind]
            assert sf.writev(offset, (wrapped,)) == len(data)
            if kind == "released":
                wrapped.release()  # the store must hold a view of its own
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
        sf.writev(offset, (memoryview(data),))
        model.write(offset, bytes(data))
        data[:] = b"\xee" * len(data)  # scribble over the source buffer
    assert sf.read(0, sf.size) == model.read(0, model.size)


def _check_nothing_mutable(sf: SparseFile) -> None:
    """Every object the store holds is an exact ``bytes`` (so no write
    can resize or change it), and the allocation counts their pieces."""
    assert all(type(obj) is bytes for obj in sf._objs), "the store holds a mutable object"
    assert sf.allocated_bytes == sum(sf._lens) == sum(n for _, n in sf.extents())


@settings(max_examples=120, deadline=None)
@given(ops=ops)
def test_the_store_holds_no_mutable_object(ops):
    sf = SparseFile()
    for op in ops:
        if op[0] == "write":
            _, offset, size, seed, kind = op
            data = _payload(seed, size)
            sf.writev(offset, (bytearray(data) if kind == "bytearray" else data,))
            _check_nothing_mutable(sf)


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
            assert fh.pwritev(offset, views) == sum(v.nbytes for v in views)
            model.write(offset, b"".join(views))
            _check_nothing_mutable(sf)
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
    assert fh.preadv(0, [sf.size]) == [model.read(0, model.size)]


def test_pwritev_stores_one_contiguous_run_as_one_piece():
    fs = SimFS()
    fh = fs.open("/f", "w+b")
    fh.pwritev(100, [b"ab"] * 500)
    sf = fh._data
    assert list(sf._starts) == [100] and list(sf._lens) == [1000]
    assert len(sf._objs) == 1 and type(sf._objs[0]) is bytes
    assert len(sf._objs[0]) == 1000 and list(sf._offs) == [0]
    assert fs.stat("/f").allocated_bytes == 1000
    assert fh.preadv(100, [1000]) == [b"ab" * 500]


def test_a_small_overwrite_inside_a_copied_piece_copies_only_itself():
    """8 bytes written into the middle of a 1 MiB copied piece: the head
    and the tail stay offsets into the same ``bytes`` and only the new run
    is copied, so the store grows by a few hundred bytes, not a piece."""
    mib = 1 << 20
    mid, run = mib // 2, bytearray(b"\xee" * 8)
    sf = SparseFile()
    sf.writev(0, (bytearray(_payload(4, 251) * (mib // 251 + 1))[:mib],))
    (old,) = sf._objs
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sf.writev(mid, (run,))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4096, grown
    assert len(sf._objs) == 3 and sf._objs[0] is old and sf._objs[2] is old
    assert list(sf._starts) == [0, mid, mid + 8] and list(sf._offs) == [0, 0, mid + 8]
    assert sf.read(mid - 1, 10) == old[mid - 1 : mid] + run + old[mid + 8 : mid + 9]
    assert sf.allocated_bytes == mib
    _check_invariants(sf)


held_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, LIMIT), st.integers(1, 600),
                  st.integers(0, 250), st.booleans()),
        st.tuples(st.just("read"), st.integers(0, LIMIT), st.integers(0, 800)),
        st.tuples(st.just("readv"), st.integers(0, LIMIT),
                  st.lists(st.integers(0, 300), min_size=1, max_size=6)),
        st.tuples(st.just("truncate")),
        st.tuples(st.just("unlink")),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=120, deadline=None)
@given(ops=held_ops)
def test_a_read_view_keeps_its_bytes_through_later_changes(ops):
    """Every piece any read hands out (views included) is kept; after every
    later write, truncate (reopen with ``w+b``) and unlink (then recreate)
    each one still shows exactly the bytes the model held when it was read."""
    fs, model = SimFS(), Model()
    fh = fs.open("/f", "w+b")
    held: list[tuple[object, bytes]] = []
    for op in ops:
        if op[0] == "write":
            _, offset, size, seed, copied = op
            data = _payload(seed, size)
            fh.pwritev(offset, [bytearray(data) if copied else data])
            model.write(offset, data)
        elif op[0] == "read":
            _, offset, n = op
            got = fh._data.read(offset, n)
            assert got == model.read(offset, n)
            held.append((got, model.read(offset, n)))
        elif op[0] == "readv":
            _, offset, sizes = op
            for size, piece in zip(sizes, fh.preadv(offset, sizes)):
                if type(piece) is memoryview:
                    assert piece.readonly and type(piece.obj) is bytes
                assert piece == model.read(offset, size)
                held.append((piece, model.read(offset, size)))
                offset += size
        else:
            fh.close()
            if op[0] == "unlink":
                fs.unlink("/f")
            fh, model = fs.open("/f", "w+b"), Model()
        for piece, seen in held:
            assert piece == seen, "a read view changed after a later call"
        _check_invariants(fh._data)


@settings(max_examples=120, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, LIMIT), st.integers(1, 600), st.integers(0, 250),
                  st.booleans()),
        min_size=1,
        max_size=30,
    )
)
def test_overlapping_writes_never_change_a_shared_source(writes):
    """Shared pieces are read-only: a write over, inside or across one
    replaces or cuts it and never writes through to the caller's bytes."""
    sf, model = SparseFile(), Model()
    sources = []
    for offset, size, seed, sliced in writes:
        data = _payload(seed, size)
        src = _slice_of_larger(data) if sliced else data
        sources.append((src, bytearray(src)))  # bytearray: a real copy
        sf.writev(offset, (src,))
        model.write(offset, data)
    for src, before in sources:
        assert src == before
    assert sf.read(0, sf.size) == model.read(0, model.size)
    _check_invariants(sf)


def test_a_large_write_from_a_view_of_bytes_is_not_copied():
    """8 MiB through ``scatter_write`` as two runs (a hole between them),
    each one view into a larger ``bytes``: the store keeps views of it, so
    the write allocates next to nothing and reads back exactly."""
    mib = 1 << 20
    blob = _payload(3, 251) * ((8 * mib + 4096) // 251 + 1)
    view = memoryview(blob)[4096 : 4096 + 8 * mib]
    raw = SimBackend(SimFS()).open("/f", "w+b")
    tracemalloc.start()
    try:
        runs = [(0, view[: 4 * mib]), (4 * mib + 512, view[4 * mib :])]
        assert raw.scatter_write(runs) == 8 * mib
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert raw.pread(0, 4 * mib) == view[: 4 * mib]
    assert raw.pread(4 * mib, 512) == bytes(512)
    assert raw.pread(4 * mib + 512, 4 * mib) == view[4 * mib :]


def test_a_shared_piece_costs_a_reference_and_three_numbers():
    """16384 1 KiB views of one ``bytes``, written back to back (a
    ``ckpt-16k`` checkpoint file's data runs): each piece is kept as the
    ``bytes`` plus its offset and length in the store's columns, not as a
    view object of its own, so the store grows by a few dozen bytes per
    piece (a kept ``memoryview`` alone is about 184 B)."""
    npieces, per = 16384, 1024
    blob = _payload(9, 251) * (npieces * per // 251 + 1)
    view = memoryview(blob)
    sf = SparseFile()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(npieces):
            sf.writev(i * per, (view[i * per : (i + 1) * per],))
        per_piece = (tracemalloc.get_traced_memory()[0] - before) / npieces
    finally:
        tracemalloc.stop()
    assert per_piece <= 64, per_piece
    assert len(sf._objs) == npieces and all(obj is blob for obj in sf._objs)
    assert sf.read(per - 8, 16) == blob[per - 8 : per + 8]


def test_threads_sharing_one_bytes_keep_their_regions():
    """Eight threads (more than this suite assumes cores) store views of
    one ``bytes`` into disjoint regions of one file, overwriting their own
    earlier pieces, with a tiny switch interval: the store's lock is the
    only thing ordering the piece-list surgery, so a lost update shows as
    a region that differs from its thread's model."""
    nthreads, region = 8, 4096
    blob = _payload(5, 251) * 40
    fs = SimFS()
    fh = fs.open("/f", "w+b")
    fh.pwritev(nthreads * region, [b"\x01"])  # every region reads back whole
    models = [bytearray(region) for _ in range(nthreads)]

    def writer(t: int) -> None:
        rng = random.Random(t)
        for _ in range(300):
            n = rng.randrange(1, 600)
            off, src = rng.randrange(region - n + 1), rng.randrange(len(blob) - n + 1)
            view = memoryview(blob)[src : src + n]
            if rng.random() < 0.5:
                fh.pwritev(t * region + off, [view])
            else:
                fh.pwritev(t * region + off, [view[: n // 2], view[n // 2 :]])
            models[t][off : off + n] = view

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(t,)) for t in range(nthreads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    for t in range(nthreads):
        assert fh.preadv(t * region, [region]) == [models[t]], t
    _check_invariants(fh._data)
