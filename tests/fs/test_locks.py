"""Block-lock false-sharing model (Table 1's mechanism)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs.locks import LockContentionModel, blocks_shared_by_layout, mean_sharers

MiB = 1 << 20
GPFS = LockContentionModel(write_coeff=1.55, read_coeff=0.79)
LUSTRE = LockContentionModel(write_coeff=0.0, read_coeff=0.0)


def test_aligned_chunks_have_one_sharer():
    assert GPFS.sharers_per_block(2 * MiB, 2 * MiB) == 1.0
    assert GPFS.sharers_per_block(4 * MiB, 2 * MiB) == 1.0  # multiple of block


def test_small_chunks_share_blocks():
    assert GPFS.sharers_per_block(16 * 1024, 2 * MiB) == pytest.approx(128.0)


def test_non_divisible_alignment_at_least_two_sharers():
    assert GPFS.sharers_per_block(3 * MiB, 2 * MiB) >= 2.0


def test_no_penalty_for_single_sharer():
    assert GPFS.write_penalty(1.0) == pytest.approx(1.0)
    assert GPFS.read_penalty(1.0) == pytest.approx(1.0)


def test_paper_table1_penalties():
    """16 KB chunks on a 2 MB GPFS block: 2.53x write, 1.78x read."""
    k = GPFS.sharers_per_block(16 * 1024, 2 * MiB)
    assert GPFS.write_penalty(k) == pytest.approx(2.53, abs=0.03)
    assert GPFS.read_penalty(k) == pytest.approx(1.78, abs=0.03)


def test_lustre_has_no_penalty():
    k = LUSTRE.sharers_per_block(16 * 1024, 2 * MiB)
    assert LUSTRE.write_penalty(k) == 1.0
    assert LUSTRE.read_penalty(k) == 1.0


def test_penalty_saturates():
    assert GPFS.write_penalty(1e9) < 1.0 + 1.55 + 1e-6


def test_sharers_below_one_rejected():
    with pytest.raises(ValueError):
        GPFS.write_penalty(0.5)


def test_bad_sizes_rejected():
    with pytest.raises(ValueError):
        GPFS.sharers_per_block(0, 2 * MiB)
    with pytest.raises(ValueError):
        GPFS.penalty("append", 1.0)


def test_penalty_picks_the_op_coefficient():
    assert GPFS.penalty("write", 128.0) == GPFS.write_penalty(128.0)
    assert GPFS.penalty("read", 128.0) == GPFS.read_penalty(128.0)


def _bandwidth(raw_bw, align, op="write"):
    return raw_bw / GPFS.penalty(op, GPFS.sharers_per_block(align, 2 * MiB))


def test_effective_bandwidth_direction():
    aligned = _bandwidth(6000.0, 2 * MiB)
    unaligned = _bandwidth(6000.0, 16 * 1024)
    assert aligned == pytest.approx(6000.0)
    assert unaligned < aligned / 2


def test_alignment_speedup_matches_ratio():
    s = _bandwidth(1.0, 2 * MiB) / _bandwidth(1.0, 16 * 1024)
    assert s == pytest.approx(GPFS.write_penalty(128.0))


def test_layout_sharing_exact_counts():
    # Two chunks of 1.5 blocks each: block 1 is shared.
    blk = 1024
    starts = [0, 1536]
    ends = [1536, 3072]
    shared = blocks_shared_by_layout(starts, ends, blk)
    assert shared == {0: 1, 1: 2, 2: 1}
    assert max(shared.values()) == 2
    assert mean_sharers(shared) == pytest.approx(4 / 3)


def test_layout_aligned_chunks_never_share():
    blk = 1024
    starts = [i * 2048 for i in range(8)]
    ends = [s + 2048 for s in starts]
    shared = blocks_shared_by_layout(starts, ends, blk)
    assert max(shared.values()) == 1


def test_layout_empty_chunks_ignored():
    assert blocks_shared_by_layout([5], [5], 1024) == {}
    assert mean_sharers({}) == 1.0


def test_layout_length_mismatch_rejected():
    with pytest.raises(ValueError):
        blocks_shared_by_layout([0], [1, 2], 1024)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    chunk_blocks=st.integers(1, 4),
    blk=st.sampled_from([256, 1024, 4096]),
)
def test_aligned_layouts_match_analytic_model(n, chunk_blocks, blk):
    """Whole-block chunks laid end to end: exact sharing == model's k=1."""
    size = chunk_blocks * blk
    starts = [i * size for i in range(n)]
    ends = [s + size for s in starts]
    shared = blocks_shared_by_layout(starts, ends, blk)
    assert max(shared.values()) == 1
    assert GPFS.sharers_per_block(size, blk) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 50),
    divisor=st.sampled_from([2, 4, 8, 16]),
)
def test_subblock_layouts_match_analytic_model(n, divisor):
    """Chunks of block/divisor packed densely share exactly `divisor` ways."""
    blk = 4096
    size = blk // divisor
    starts = [i * size for i in range(n)]
    ends = [s + size for s in starts]
    shared = blocks_shared_by_layout(starts, ends, blk)
    full_blocks = [b for b, c in shared.items() if c == divisor]
    if n >= divisor:
        assert full_blocks, "expected at least one fully shared block"
    assert GPFS.sharers_per_block(size, blk) == pytest.approx(divisor)
