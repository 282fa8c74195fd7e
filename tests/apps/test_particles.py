"""Particle state and the 52-byte restart record."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.mp2c.particles import (
    RECORD_BYTES,
    ParticleState,
    equal_states,
)
from repro.errors import ReproError


def test_record_size_is_papers_52_bytes():
    assert RECORD_BYTES == 52
    s = ParticleState.random(10, (4.0, 4.0, 4.0), seed=1)
    assert len(s.to_records()) == 10 * 52


def test_record_bytes_are_pinned():
    """Field order and byte order of one record: id, pos, vel, little-endian."""
    s = ParticleState(
        np.array([0x01020304]),
        np.array([[0.5, -1.25, 3.0]]),
        np.array([[2.0**-30, 7.0, -0.0]]),
    )
    raw = struct.pack("<I3d3d", 0x01020304, 0.5, -1.25, 3.0, 2.0**-30, 7.0, -0.0)
    assert s.to_records() == raw
    back = ParticleState.from_records(raw + raw)
    assert back.ids.tolist() == [0x01020304] * 2
    assert back.pos.tolist() == [[0.5, -1.25, 3.0]] * 2
    assert back.vel.tolist() == [[2.0**-30, 7.0, -0.0]] * 2


def test_records_roundtrip_exactly():
    s = ParticleState.random(100, (8.0, 8.0, 8.0), seed=3)
    back = ParticleState.from_records(s.to_records())
    assert equal_states(s, back)
    assert np.array_equal(s.pos, back.pos)  # bitwise, not approximate


def test_bad_record_length_rejected():
    with pytest.raises(ReproError):
        ParticleState.from_records(b"\0" * 53)


def test_random_state_has_zero_net_momentum():
    s = ParticleState.random(1000, (10.0, 10.0, 10.0), seed=5)
    assert np.abs(s.vel.sum(axis=0)).max() < 1e-10


def test_random_positions_inside_box():
    box = (3.0, 5.0, 7.0)
    s = ParticleState.random(500, box, seed=2)
    assert (s.pos >= 0).all()
    assert (s.pos <= np.asarray(box)).all()


def test_id_offset_makes_global_ids_unique():
    a = ParticleState.random(10, (1.0, 1.0, 1.0), seed=1, id_offset=0)
    b = ParticleState.random(10, (1.0, 1.0, 1.0), seed=2, id_offset=10)
    merged = ParticleState.concatenate([a, b])
    assert len(set(merged.ids.tolist())) == 20


def test_empty_state():
    e = ParticleState.empty()
    assert e.n == 0
    assert e.to_records() == b""
    assert equal_states(e, ParticleState.from_records(b""))


def test_select_and_concatenate_partition():
    s = ParticleState.random(60, (4.0, 4.0, 4.0), seed=9)
    mask = s.pos[:, 0] < 2.0
    left, right = s.select(mask), s.select(~mask)
    assert left.n + right.n == 60
    assert equal_states(s, ParticleState.concatenate([left, right]))


def test_select_returns_copies():
    s = ParticleState.random(5, (1.0, 1.0, 1.0), seed=4)
    sub = s.select(np.ones(5, dtype=bool))
    sub.pos[:] = 0.0
    assert not np.array_equal(s.pos, sub.pos)


def test_inconsistent_arrays_rejected():
    with pytest.raises(ReproError):
        ParticleState(np.arange(3), np.zeros((2, 3)), np.zeros((3, 3)))


def test_equal_states_order_insensitive():
    s = ParticleState.random(20, (2.0, 2.0, 2.0), seed=8)
    perm = np.random.default_rng(0).permutation(20)
    shuffled = ParticleState(s.ids[perm], s.pos[perm], s.vel[perm])
    assert equal_states(s, shuffled)


def test_equal_states_detects_differences():
    s = ParticleState.random(20, (2.0, 2.0, 2.0), seed=8)
    other = ParticleState(s.ids, s.pos.copy(), s.vel.copy())
    other.vel[3, 1] += 1e-12
    assert not equal_states(s, other)
    assert not equal_states(s, ParticleState.empty())


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 200), seed=st.integers(0, 1000))
def test_record_roundtrip_property(n, seed):
    s = ParticleState.random(n, (16.0, 16.0, 16.0), seed=seed)
    raw = s.to_records()
    assert len(raw) == n * RECORD_BYTES
    assert equal_states(s, ParticleState.from_records(raw))
