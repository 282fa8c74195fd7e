"""Chunk layout arithmetic: alignment, non-overlap, inverse mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SionUsageError
from repro.sion.layout import ChunkLayout, align_up


class TestAlignUp:
    def test_basic(self):
        assert align_up(0, 512) == 0
        assert align_up(1, 512) == 512
        assert align_up(512, 512) == 512
        assert align_up(513, 512) == 1024

    def test_invalid(self):
        with pytest.raises(SionUsageError):
            align_up(1, 0)
        with pytest.raises(SionUsageError):
            align_up(-1, 512)

    @settings(max_examples=50, deadline=None)
    @given(v=st.integers(0, 10**12), g=st.integers(1, 10**6))
    def test_properties(self, v, g):
        a = align_up(v, g)
        assert a >= v
        assert a % g == 0
        assert a - v < g


def _layout(chunks, blk=512, mb1=100):
    return ChunkLayout(fsblksize=blk, chunksizes=chunks, metablock1_size=mb1)


class TestChunkLayout:
    def test_aligned_sizes_rounded_up_with_min_one_block(self):
        lay = _layout([0, 1, 512, 513])
        assert lay.aligned_sizes.tolist() == [512, 512, 512, 1024]

    def test_start_of_data_after_metablock(self):
        lay = _layout([100], blk=512, mb1=1000)
        assert lay.start_of_data == 1024

    def test_capacity_is_aligned_size(self):
        lay = _layout([100, 600])
        assert lay.capacity(0) == 512
        assert lay.capacity(1) == 1024

    def test_chunk_starts_first_block(self):
        lay = _layout([100, 100, 100])
        assert lay.chunk_start(0, 0) == lay.start_of_data
        assert lay.chunk_start(1, 0) == lay.start_of_data + 512
        assert lay.chunk_start(2, 0) == lay.start_of_data + 1024

    def test_block_stride_is_total_capacity(self):
        lay = _layout([100, 600])
        assert lay.block_capacity == 512 + 1024
        assert lay.chunk_start(0, 1) - lay.chunk_start(0, 0) == lay.block_capacity

    def test_chunk_end_and_end_of_blocks(self):
        lay = _layout([100, 100])
        assert lay.chunk_end(1, 0) == lay.chunk_start(1, 0) + 512
        assert lay.end_of_blocks(3) == lay.start_of_data + 3 * lay.block_capacity

    def test_validation(self):
        with pytest.raises(SionUsageError):
            _layout([100], blk=0)
        with pytest.raises(SionUsageError):
            _layout([-1])
        with pytest.raises(SionUsageError):
            ChunkLayout(512, [1], -1)
        lay = _layout([100])
        with pytest.raises(SionUsageError):
            lay.chunk_start(1, 0)
        with pytest.raises(SionUsageError):
            lay.chunk_start(0, -1)
        with pytest.raises(SionUsageError):
            lay.end_of_blocks(-1)

    def test_locate_inverse_of_chunk_start(self):
        lay = _layout([100, 900, 300])
        for task in range(3):
            for block in range(3):
                for pos in (0, 1, lay.capacity(task) - 1):
                    off = lay.chunk_start(task, block) + pos
                    assert lay.locate(off) == (task, block, pos)

    def test_locate_outside_data_returns_none(self):
        lay = _layout([100])
        assert lay.locate(0) is None
        assert lay.locate(lay.start_of_data - 1) is None

    def test_is_aligned_true_at_native_granularity(self):
        lay = _layout([100, 700], blk=512)
        assert lay.is_aligned(512)
        assert lay.is_aligned(256)  # finer granularity still aligned

    def test_is_aligned_false_when_configured_smaller(self):
        # Configured at 512 but the "real" FS block is 2048: chunk
        # boundaries now fall inside real blocks (Table 1's scenario).
        lay = _layout([100, 100, 100], blk=512, mb1=0)
        assert not lay.is_aligned(2048)

    def test_from_metablock1_uses_stored_start(self):
        from repro.sion.format import Metablock1

        mb1 = Metablock1(
            fsblksize=512,
            ntasks_local=2,
            nfiles=1,
            filenum=0,
            ntasks_global=2,
            start_of_data=99999 * 512,
            metablock2_offset=0,
            globalranks=[0, 1],
            chunksizes=[10, 20],
        )
        lay = ChunkLayout.from_metablock1(mb1)
        assert lay.start_of_data == 99999 * 512


@settings(max_examples=60, deadline=None)
@given(
    chunks=st.lists(st.integers(0, 10000), min_size=1, max_size=30),
    blk=st.sampled_from([256, 512, 4096]),
    nblocks=st.integers(1, 4),
)
def test_chunks_never_overlap_and_stay_aligned(chunks, blk, nblocks):
    """The core layout invariants behind the no-false-sharing claim."""
    lay = ChunkLayout(blk, chunks, metablock1_size=123)
    intervals = []
    for b in range(nblocks):
        for t in range(len(chunks)):
            s, e = lay.chunk_start(t, b), lay.chunk_end(t, b)
            assert s % blk == 0, "chunk start must sit on an FS block boundary"
            assert (e - s) % blk == 0, "allocation must be whole blocks"
            assert e - s >= max(chunks[t], 1)
            intervals.append((s, e))
    intervals.sort()
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert e1 <= s2, "chunk allocations must be disjoint"
