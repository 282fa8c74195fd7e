"""Cache correctness: the LRU chunk cache must be invisible to readers.

Three properties ISSUE 6 demands:

* any interleaving of positioned/vectored reads through the cache is
  byte-identical to uncached reads of the same file (hypothesis-driven);
* eviction under budget pressure keeps the byte accounting exact and
  never breaks correctness;
* generation invalidation — a re-sealed file never serves stale chunks.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.backends.base import RawFile
from repro.backends.caching import CachingRawFile
from repro.backends.simfs_backend import SimBackend
from repro.errors import ReproError
from repro.fs.cache import ChunkCache

LIMIT = 4096  # file/offset/size bound: small enough for dense comparison


def _backend() -> SimBackend:
    return SimBackend()


def _seal(backend: SimBackend, path: str, content: bytes) -> None:
    h = backend.open(path, "wb")
    h.pwrite(0, content)
    h.close()


def _cached(backend: SimBackend, path: str, cache: ChunkCache, gen: int = 1):
    return CachingRawFile(backend.open(path, "rb"), cache, gen, path)


@st.composite
def read_plans(draw):
    """A file plus an arbitrary interleaving of read ops against it."""
    content = draw(st.binary(min_size=0, max_size=LIMIT))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("pread"),
                    st.integers(0, LIMIT + 64),
                    st.integers(0, LIMIT // 4),
                ),
                st.tuples(
                    st.just("gather"),
                    st.lists(
                        st.tuples(
                            st.integers(0, LIMIT + 64), st.integers(0, LIMIT // 4)
                        ),
                        min_size=0,
                        max_size=4,
                    ),
                    st.none(),
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    block = draw(st.sampled_from([1, 7, 64, 512, 4096]))
    capacity = draw(st.sampled_from([0, 64, 600, 1 << 20]))
    return content, ops, block, capacity


@given(read_plans())
@settings(max_examples=120, deadline=None)
def test_any_interleaving_matches_uncached(plan):
    """Cached reads are byte-identical to uncached reads, always."""
    content, ops, block, capacity = plan
    backend = _backend()
    path = "/t/f.bin"
    _seal(backend, path, content)
    cache = ChunkCache(capacity, block)
    cached = _cached(backend, path, cache)
    plain = backend.open(path, "rb")
    for op in ops:
        if op[0] == "pread":
            _, off, size = op
            assert cached.pread(off, size) == plain.pread(off, size)
        else:
            _, requests, _ = op
            requests = [(o, s) for o, s in requests]
            assert cached.gather_read(requests) == plain.gather_read(requests)
    snap = cache.snapshot()
    assert snap["used_bytes"] <= max(capacity, 0)
    assert snap["hits"] + snap["misses"] == snap["lookups"]
    cached.close()
    plain.close()


@given(st.binary(min_size=1, max_size=LIMIT), st.integers(1, 8))
@example(b"\x00" * 33, 1)  # the sweeps touch two blocks wholly past EOF
@settings(max_examples=60, deadline=None)
def test_eviction_under_pressure_stays_correct(content, nblocks_budget):
    """A cache far smaller than the file evicts constantly, never corrupts."""
    backend = _backend()
    path = "/t/f.bin"
    _seal(backend, path, content)
    block = 64
    cache = ChunkCache(nblocks_budget * block, block)
    cached = _cached(backend, path, cache)
    plain = backend.open(path, "rb")
    # Two sweeps: the second re-touches blocks the first evicted.
    for _ in range(2):
        for off in range(0, len(content) + block, block // 2):
            assert cached.pread(off, block) == plain.pread(off, block)
    snap = cache.snapshot()
    assert snap["used_bytes"] <= nblocks_budget * block
    assert snap["entry_count"] <= nblocks_budget + 1
    if len(content) > (nblocks_budget + 1) * block:
        assert snap["evictions"] > 0
        assert snap["bytes_evicted"] > 0
    cached.close()
    plain.close()


def test_generation_invalidation_never_serves_stale_bytes():
    """A re-sealed file (new generation) never sees the old seal's blocks."""
    backend = _backend()
    path = "/t/f.bin"
    _seal(backend, path, b"A" * 512)
    cache = ChunkCache(1 << 20, 64)
    old = _cached(backend, path, cache, gen=1)
    assert old.pread(0, 512) == b"A" * 512
    assert cache.snapshot()["entry_count"] > 0

    # Re-seal: same path, different bytes, new generation.
    _seal(backend, path, b"B" * 512)
    dropped = cache.drop_generation(1)
    assert dropped > 0
    new = _cached(backend, path, cache, gen=2)
    assert new.pread(0, 512) == b"B" * 512
    # The old generation's keys are gone; the new one's are resident.
    assert cache.get((1, path, 0)) is None
    assert cache.snapshot()["invalidations"] == dropped
    old.close()
    new.close()


def test_generation_isolation_without_drop():
    """Even undropped, an old generation's entries never leak across tags."""
    backend = _backend()
    path = "/t/f.bin"
    _seal(backend, path, b"A" * 128)
    cache = ChunkCache(1 << 20, 64)
    _cached(backend, path, cache, gen=1).pread(0, 128)
    _seal(backend, path, b"B" * 128)
    # A reader on generation 2 misses generation 1's entries by key.
    assert _cached(backend, path, cache, gen=2).pread(0, 128) == b"B" * 128


def test_cache_telemetry_and_lru_order():
    """Hits refresh recency; the victim is the least recently used block."""
    backend = _backend()
    path = "/t/f.bin"
    _seal(backend, path, bytes(range(256)) * 2)
    cache = ChunkCache(3 * 64, 64)
    cached = _cached(backend, path, cache)
    for b in (0, 1, 2):
        cached.pread(b * 64, 64)
    cached.pread(0, 64)  # refresh block 0: block 1 is now LRU
    cached.pread(3 * 64, 64)  # evicts block 1
    assert cache.get((1, path, 0)) is not None
    assert cache.get((1, path, 1)) is None
    snap = cache.snapshot()
    assert snap["evictions"] == 1
    assert snap["bytes_served"] > 0


def test_zero_capacity_disables_caching():
    """capacity_bytes=0 keeps every code path but retains nothing."""
    backend = _backend()
    path = "/t/f.bin"
    _seal(backend, path, b"x" * 300)
    cache = ChunkCache(0, 64)
    cached = _cached(backend, path, cache)
    assert cached.pread(0, 300) == b"x" * 300
    assert cache.snapshot()["entry_count"] == 0
    assert cache.snapshot()["rejected"] > 0


def test_cache_rejects_bad_parameters():
    with pytest.raises(ReproError):
        ChunkCache(-1)
    with pytest.raises(ReproError):
        ChunkCache(10, 0)


def test_caching_rawfile_is_read_only():
    backend = _backend()
    path = "/t/f.bin"
    _seal(backend, path, b"sealed")
    cached = _cached(backend, path, ChunkCache(1024, 64))
    # A read-only source, not a RawFile: no write-side call exists at all.
    assert not isinstance(cached, RawFile)
    for name in ("pwrite", "scatter_write", "flush"):
        assert not hasattr(cached, name)
    assert cached.pread(0, 64) == b"sealed"
