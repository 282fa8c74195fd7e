"""Shared fixtures: backends with deterministic block sizes, tmp paths."""

from __future__ import annotations

import pytest

from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend
from repro.fs.simfs import SimFS

#: Deterministic alignment granularity for functional tests (small enough
#: that multi-block layouts stay cheap).
TEST_BLKSIZE = 512


@pytest.fixture
def local_backend(tmp_path):
    """Real-file backend with a pinned 512-byte block size."""
    return LocalBackend(blocksize_override=TEST_BLKSIZE)


@pytest.fixture
def sim_backend():
    """Simulated-FS backend (counts ops; nothing is priced)."""
    return SimBackend(SimFS(blocksize_override=TEST_BLKSIZE))


@pytest.fixture(params=["local", "sim"])
def any_backend(request, tmp_path):
    """Parametrized over both storage backends.

    Returns ``(backend, base_dir)`` so tests build paths that work on both.
    """
    if request.param == "local":
        return LocalBackend(blocksize_override=TEST_BLKSIZE), str(tmp_path)
    return SimBackend(SimFS(blocksize_override=TEST_BLKSIZE)), "/scratch"


def fresh_sim() -> SimBackend:
    """An empty simulated store (a crash state's target)."""
    return SimBackend(SimFS(blocksize_override=TEST_BLKSIZE))


def flip_shadow_magic(rows, path: str, ltask: int, block: int) -> list:
    """``rows`` with the magic of chunk ``(ltask, block)``'s shadow header
    inverted wherever it was written to ``path``: the recovery scan finds
    the chain torn there."""
    from repro.sion.constants import MAGIC_SHADOW, SHADOW_HEADER_SIZE
    from repro.sion.format import ShadowHeader

    def flipped(piece):
        if len(piece) != SHADOW_HEADER_SIZE or bytes(piece[:8]) != MAGIC_SHADOW:
            return piece
        hdr = ShadowHeader.decode(bytes(piece))
        if hdr is None or (hdr.ltask, hdr.block) != (ltask, block):
            return piece
        return bytes(b ^ 0xFF for b in piece[:8]) + bytes(piece[8:])

    return [
        r._replace(payload=tuple(flipped(p) for p in r.payload)) if r.path == path else r
        for r in rows
    ]
