"""Client-side read caching: the analytic model and the real shared cache.

On Jaguar the paper observed read bandwidths *above* the file system's
40 GB/s peak for large task counts (Fig. 5b) and attributed them to caching:
when the working set was recently written by the same nodes, part of each
read is served from client page caches at memory speed.

Two layers live here:

* :class:`ClientCacheModel` — the original analytic model: the fraction
  of a dataset still resident is ``hit_efficiency * min(1,
  aggregate_cache / data_bytes)``; the effective bandwidth is the
  harmonic combination of the cache path and the disk path.
* :class:`ChunkCache` — a *real* shared LRU chunk cache with a
  configurable byte budget, per-entry generation tags keyed on
  metablock identity (the read gateway in :mod:`repro.serve` assigns
  one generation per opened container and drops it when the container
  is re-sealed), and hit/miss/eviction/bytes-served telemetry.  The
  block-granular read-through adapter over backend file handles lives
  in :class:`~repro.backends.caching.CachingRawFile`, so a warm
  working set never reaches the store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ModelUsageError, ReproError


@dataclass(frozen=True)
class ClientCacheModel:
    """Aggregate page-cache of the participating compute nodes."""

    bytes_per_node: float
    cache_bw_per_node: float  # MB/s of local page-cache reads
    hit_efficiency: float = 1.0  # fraction of resident data actually re-read

    def __post_init__(self) -> None:
        if not 0.0 <= self.hit_efficiency <= 1.0:
            raise ModelUsageError("hit_efficiency must be in [0, 1]")
        if self.bytes_per_node < 0 or self.cache_bw_per_node < 0:
            raise ModelUsageError("cache sizes/bandwidths must be non-negative")

    def aggregate_cache_bytes(self, n_nodes: int) -> float:
        """Total cache capacity across ``n_nodes``."""
        if n_nodes < 0:
            raise ModelUsageError("n_nodes must be non-negative")
        return self.bytes_per_node * n_nodes

    def hit_fraction(self, data_bytes: float, n_nodes: int) -> float:
        """Fraction of a read served from cache right after writing it."""
        if data_bytes <= 0:
            return self.hit_efficiency if n_nodes > 0 else 0.0
        resident = min(1.0, self.aggregate_cache_bytes(n_nodes) / data_bytes)
        return self.hit_efficiency * resident

    def effective_read_bandwidth(
        self, disk_bw: float, data_bytes: float, n_nodes: int
    ) -> float:
        """Observed read bandwidth mixing cache hits and disk misses.

        Time to read D bytes = hit*D / cache_bw + (1-hit)*D / disk_bw, so the
        apparent bandwidth is the weighted harmonic mean.  With a warm cache
        this exceeds ``disk_bw`` — the paper's >peak artifact.
        """
        if disk_bw <= 0:
            raise ModelUsageError("disk_bw must be positive")
        hit = self.hit_fraction(data_bytes, n_nodes)
        cache_bw = self.cache_bw_per_node * max(n_nodes, 1)
        if cache_bw <= 0:
            return disk_bw
        denom = hit / cache_bw + (1.0 - hit) / disk_bw
        if denom <= 0:
            return cache_bw
        return 1.0 / denom


#: A cache that never hits — used for the GPFS profile, where the paper
#: sized datasets (1 TB) specifically to defeat caching.
NO_CACHE = ClientCacheModel(bytes_per_node=0.0, cache_bw_per_node=0.0, hit_efficiency=0.0)


# ---------------------------------------------------------------------------
# The real shared chunk cache.

#: Default cache-block granularity: small enough that a ranged record
#: read does not drag whole chunks in, large enough to batch fragments.
DEFAULT_CACHE_BLOCK = 64 * 1024

#: Sentinel distinguishing "entry absent" from a cached empty block
#: (a block at EOF legitimately caches as ``b""``).
_MISSING = object()


@dataclass
class CacheStats:
    """Telemetry of one :class:`ChunkCache` (mutated under the cache lock).

    ``bytes_served`` counts payload delivered from cached entries (the
    Fig. 5b above-peak path); ``bytes_fetched`` counts payload that had
    to come from the store to fill misses.  ``invalidations`` counts
    entries dropped by generation (container re-sealed), ``evictions``
    entries dropped by LRU pressure against the byte budget.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    rejected: int = 0  # single entries larger than the whole budget
    bytes_served: int = 0
    bytes_fetched: int = 0
    bytes_evicted: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view for metrics, stats endpoints, and assertions."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "rejected": self.rejected,
            "bytes_served": self.bytes_served,
            "bytes_fetched": self.bytes_fetched,
            "bytes_evicted": self.bytes_evicted,
            "hit_rate": self.hit_rate,
        }


class ChunkCache:
    """Shared LRU chunk/metadata cache with a byte budget.

    Entries are keyed ``(generation, path, block_index)``: the *generation*
    is an opaque tag the owner derives from metablock identity (see
    :meth:`repro.serve.ReadGateway.open_container`), so a re-sealed
    container gets a fresh generation and its stale blocks can be dropped
    wholesale with :meth:`drop_generation` — cached bytes of an old seal
    are unreachable the moment the generation retires.

    Thread-safe: one lock guards the entry table and the statistics, so
    the cache may be shared by the asyncio gateway and by SPMD rank
    threads simultaneously.
    """

    def __init__(self, capacity_bytes: int, block_size: int = DEFAULT_CACHE_BLOCK) -> None:
        """Create a cache holding at most ``capacity_bytes`` of payload.

        ``block_size`` is the granularity
        :class:`~repro.backends.caching.CachingRawFile` splits reads
        at; the cache itself only stores whatever values it is
        handed.  ``capacity_bytes=0`` disables caching (every lookup
        misses, nothing is retained) without changing any code path.
        """
        if capacity_bytes < 0:
            raise ReproError(f"capacity_bytes must be >= 0, got {capacity_bytes}")
        if block_size < 1:
            raise ReproError(f"block_size must be >= 1, got {block_size}")
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._used = 0
        self._lock = threading.RLock()

    # -- the cache protocol ----------------------------------------------------

    def get(self, key: tuple) -> "bytes | None":
        """Look up ``key``; a hit refreshes its LRU position.

        Returns the cached payload (possibly ``b""`` for a block at EOF)
        or ``None`` on a miss.
        """
        with self._lock:
            self.stats.lookups += 1
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats.bytes_served += len(value)  # type: ignore[arg-type]
            return value  # type: ignore[return-value]

    def put(self, key: tuple, data: "bytes | memoryview") -> None:
        """Insert ``data`` under ``key``, evicting LRU entries to fit.

        An entry larger than the entire budget is rejected (counted in
        ``stats.rejected``) instead of flushing the whole cache for one
        unreusable value.  Re-inserting an existing key replaces it.  A
        view (a store's read piece) is copied, so an entry holds its own
        bytes and never pins a larger object the byte budget cannot see.
        """
        size = len(data)
        with self._lock:
            if size > self.capacity_bytes:
                self.stats.rejected += 1
                return
            old = self._entries.pop(key, _MISSING)
            if old is not _MISSING:
                self._used -= len(old)  # type: ignore[arg-type]
            self._entries[key] = bytes(data)
            self._used += size
            self.stats.insertions += 1
            self.stats.bytes_fetched += size
            while self._used > self.capacity_bytes:
                _, victim = self._entries.popitem(last=False)
                self._used -= len(victim)
                self.stats.evictions += 1
                self.stats.bytes_evicted += len(victim)

    def drop_generation(self, generation: object) -> int:
        """Invalidate every entry tagged ``generation``; returns the count.

        Called by the gateway when a container's metablock identity
        changes (the file was re-sealed): the retired generation's blocks
        must never be served again.
        """
        with self._lock:
            stale = [k for k in self._entries if k[0] == generation]
            for k in stale:
                self._used -= len(self._entries.pop(k))
            self.stats.invalidations += len(stale)
            return len(stale)

    def snapshot(self) -> dict[str, float]:
        """Statistics plus current occupancy, atomically."""
        with self._lock:
            snap = self.stats.snapshot()
            snap["used_bytes"] = self._used
            snap["entry_count"] = len(self._entries)
            snap["capacity_bytes"] = self.capacity_bytes
            return snap
