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
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    fs.mkdir("/scratch")
    return SimBackend(fs)


@pytest.fixture(params=["local", "sim"])
def any_backend(request, tmp_path):
    """Parametrized over both storage backends.

    Returns ``(backend, base_dir)`` so tests build paths that work on both.
    """
    if request.param == "local":
        return LocalBackend(blocksize_override=TEST_BLKSIZE), str(tmp_path)
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    fs.mkdir("/scratch")
    return SimBackend(fs), "/scratch"
