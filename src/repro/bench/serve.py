"""``serve`` suite: the read gateway under concurrent session load.

The paper attributes its above-peak Jaguar read bandwidths (Fig. 5b) to
client-side caching; ISSUE 6 turns :mod:`repro.fs.cache` into a real
shared LRU chunk cache and serves sealed containers through the
:mod:`repro.serve` gateway.  These scenarios drive the gateway like a
production load generator — thousands of simultaneous asyncio sessions
over one 4k-writer multifile — and report throughput *and* tail latency
(p50/p99), with the cache telemetry pinned in-scenario:

* ``serve/load[sessions=N]`` — N concurrent record sessions (an N-way
  :class:`~repro.sion.mapping.ReadPartition` over 4096 writer streams),
  every byte verified.  A cold pass populates the cache; a warm rerun
  of the same N sessions must hit it: the warm pass is pinned at **zero
  backend data-read calls**, a warm hit-rate **> 0.9**, and all warm
  bytes served from cache.  The 1024-session point is the acceptance
  workload; 256/1024 carry ``ci-grid``, 4096 runs nightly.
* ``serve/mix[sessions=256]`` — an open/read op mix: record sessions
  interleaved with stateless ranged reads and whole-stream reads, the
  kind of traffic a restart-analysis service actually sees.
* ``serve/sweep[nwriters=4096]`` — the concurrency axis: the same
  container under 64/256/1024 sessions, cold and warm, one latency
  curve per point (nightly).

Latency percentiles and pass walls are host clock: reported, never
compared.  Call counts are pinned in-scenario from first principles; the
committed baseline gates the cache hit rates, which are deterministic.
"""

from __future__ import annotations

import asyncio
import math
import time

from repro.bench.registry import scenario
from repro.bench.results import Metric, ScenarioOutput
from repro.bench.scaffold import (
    CHUNKSIZE,
    PAYLOAD,
    KiB,
    check,
    counting_backend,
    grid_tags,
    host_clock,
    payload,
    pin,
    write_cycle,
)
from repro.serve.gateway import ReadGateway
from repro.sion.mapping import ReadPartition

#: One container shape for the whole suite: the acceptance multifile
#: (4 KiB chunks and FS blocks, 64 B payloads — the scaffold geometry).
NWRITERS = 4096
PATH = "/serve.sion"

#: Session counts of the load grid; the first two form the CI grid.
SERVE_SESSION_COUNTS = (256, 1024, 4096)
CI_SESSION_COUNTS = frozenset((256, 1024))

#: Gateway cache budget: holds the whole 16 MiB chunk region warm.
CACHE_BYTES = 64 * 1024 * KiB
CACHE_BLOCK = 64 * KiB

#: Session read granularity: small enough that every session issues
#: several ops (latency samples), large enough to cross chunk bounds.
READ_SIZE = 100


def _percentile(samples: "list[float]", q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in 0..1)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _expected_slice(part: ReadPartition, reader: int) -> bytes:
    return b"".join(payload(w, PAYLOAD) for w in part.writers_of(reader))


async def _session_pass(gw: ReadGateway, nsessions: int):
    """One full pass: open N sessions, drain each slice, verify, close.

    All sessions are opened before any reads begin, so the gateway's
    ``sessions_peak`` counter proves true concurrency.  Returns
    ``(open_latencies, read_latencies, total_bytes)`` in seconds/bytes.
    """
    part = ReadPartition.balanced(NWRITERS, nsessions)
    open_lat: "list[float]" = []
    read_lat: "list[float]" = []
    sids: "list[tuple[int, int]]" = []

    async def open_one(i: int) -> None:
        t0 = time.perf_counter()
        sid = await gw.open_session(PATH, readers=nsessions, reader=i)
        open_lat.append(time.perf_counter() - t0)
        sids.append((i, sid))

    await asyncio.gather(*(open_one(i) for i in range(nsessions)))
    pin(gw.stats_gateway.sessions_active, nsessions, "concurrent sessions")

    async def drain_one(i: int, sid: int) -> int:
        parts = []
        while True:
            t0 = time.perf_counter()
            piece = await gw.read(sid, READ_SIZE)
            read_lat.append(time.perf_counter() - t0)
            if not piece:
                break
            parts.append(piece)
        data = b"".join(parts)
        if data != _expected_slice(part, i):
            raise AssertionError(
                f"session {i}/{nsessions} diverged from the serial view "
                f"({len(data)} bytes)"
            )
        await gw.close_session(sid)
        return len(data)

    totals = await asyncio.gather(*(drain_one(i, sid) for i, sid in sids))
    if sum(totals) != NWRITERS * PAYLOAD:
        raise AssertionError(f"sessions consumed {sum(totals)} bytes in total")
    return open_lat, read_lat, sum(totals)


def _lat_metrics(prefix: str, samples: "list[float]") -> "dict[str, Metric]":
    return {
        f"{prefix}_p50_ms": host_clock(_percentile(samples, 0.50) * 1e3, "ms"),
        f"{prefix}_p99_ms": host_clock(_percentile(samples, 0.99) * 1e3, "ms"),
    }


# --------------------------------------------------------------------------
# The acceptance workload: N concurrent sessions, cold then warm.


def _load(ctx) -> ScenarioOutput:
    nsessions = ctx.params["sessions"]
    backend = counting_backend()
    write_cycle(backend, NWRITERS, ctx.params["engine"], path=PATH)
    gw = ReadGateway(
        backend=backend, cache_bytes=CACHE_BYTES, cache_block=CACHE_BLOCK
    )

    # Cold pass: populates the cache straight off the store.
    before = backend.snapshot()
    t0 = time.perf_counter()
    open_lat, read_lat, nbytes = asyncio.run(_session_pass(gw, nsessions))
    cold_wall = time.perf_counter() - t0
    cold_reads = backend.snapshot()["data_read_calls"] - before["data_read_calls"]
    cold_cache = gw.cache.snapshot()
    # Sessions share the one cache: the cold pass costs about one vectored
    # backend read per cache block of the chunk region, whatever the
    # session count — never O(sessions * streams).
    region_blocks = NWRITERS * CHUNKSIZE // CACHE_BLOCK
    check(
        cold_reads < 2 * region_blocks,
        f"cold pass issued {cold_reads} backend reads for a "
        f"{region_blocks}-block chunk region",
    )

    # Warm rerun: the same N sessions must be served from cache alone.
    before = backend.snapshot()
    t0 = time.perf_counter()
    _, warm_read_lat, warm_bytes = asyncio.run(_session_pass(gw, nsessions))
    warm_wall = time.perf_counter() - t0
    after = backend.snapshot()
    warm_cache = gw.cache.snapshot()

    pin(
        after["data_read_calls"] - before["data_read_calls"], 0,
        "warm-pass backend data reads",
    )
    warm_lookups = warm_cache["lookups"] - cold_cache["lookups"]
    warm_hits = warm_cache["hits"] - cold_cache["hits"]
    warm_hit_rate = warm_hits / warm_lookups if warm_lookups else 0.0
    check(warm_hit_rate > 0.9, f"warm hit-rate {warm_hit_rate:.3f} not > 0.9")
    warm_cache_bytes = warm_cache["bytes_served"] - cold_cache["bytes_served"]
    if warm_cache_bytes < warm_bytes:
        raise AssertionError(
            f"warm pass served {warm_cache_bytes} cache bytes for "
            f"{warm_bytes} logical bytes — not fully cache-resident"
        )
    pin(gw.stats_gateway.sessions_peak, nsessions, "peak concurrent sessions")

    metrics = {
        "cold_wall_s": host_clock(cold_wall),
        "warm_wall_s": host_clock(warm_wall),
        **_lat_metrics("open", open_lat),
        **_lat_metrics("read", read_lat),
        **_lat_metrics("warm_read", warm_read_lat),
        "sessions_per_s": Metric(nsessions / cold_wall, "sessions/s", "info"),
        "cold_hit_rate": Metric(cold_cache["hit_rate"], "ratio", "higher"),
        "warm_hit_rate": Metric(warm_hit_rate, "ratio", "higher"),
        "data_read_calls": Metric(float(cold_reads), "calls", "info"),
        "cache_bytes_served": Metric(float(warm_cache_bytes), "B", "info"),
    }
    text = (
        f"{nsessions} concurrent sessions over {NWRITERS} writer streams "
        f"({nbytes} bytes byte-verified): cold {cold_wall:.2f} s "
        f"({cold_reads} backend reads, hit-rate "
        f"{cold_cache['hit_rate']:.2f}), warm {warm_wall:.2f} s "
        f"(0 backend reads, hit-rate {warm_hit_rate:.2f}, "
        f"{warm_cache_bytes} B from cache)"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Mixed op traffic: sessions + stateless ranged and whole-stream reads.


def _mix(ctx) -> ScenarioOutput:
    nclients = ctx.params["sessions"]
    backend = counting_backend()
    write_cycle(backend, NWRITERS, ctx.params["engine"], path=PATH)
    gw = ReadGateway(
        backend=backend, cache_bytes=CACHE_BYTES, cache_block=CACHE_BLOCK
    )
    op_lat: "list[float]" = []
    nops = 0

    async def client(i: int) -> int:
        nonlocal nops
        rank = (i * 31) % NWRITERS
        want = payload(rank, PAYLOAD)
        # open+drain a single-stream session ...
        t0 = time.perf_counter()
        sid = await gw.open_session(PATH, rank=rank)
        data = await gw.read_all(sid)
        await gw.close_session(sid)
        op_lat.append(time.perf_counter() - t0)
        if data != want:
            raise AssertionError(f"client {i}: session bytes diverged")
        # ... a stateless whole-stream read ...
        t0 = time.perf_counter()
        task = await gw.read_task(PATH, (rank + 1) % NWRITERS)
        op_lat.append(time.perf_counter() - t0)
        if task != payload((rank + 1) % NWRITERS, PAYLOAD):
            raise AssertionError(f"client {i}: read_task bytes diverged")
        # ... and a ranged read inside a third stream.
        t0 = time.perf_counter()
        rng = await gw.read_range(PATH, (rank + 2) % NWRITERS, 8, 16)
        op_lat.append(time.perf_counter() - t0)
        if rng != payload((rank + 2) % NWRITERS, PAYLOAD)[8:24]:
            raise AssertionError(f"client {i}: read_range bytes diverged")
        nops += 3
        return len(data) + len(task) + len(rng)

    async def drive() -> int:
        totals = await asyncio.gather(*(client(i) for i in range(nclients)))
        return sum(totals)

    t0 = time.perf_counter()
    nbytes = asyncio.run(drive())
    wall = time.perf_counter() - t0
    cache = gw.cache.snapshot()
    pin(nops, 3 * nclients, "mixed ops executed")
    # Overlapping streams: the shared cache absorbs the re-reads.
    check(cache["hit_rate"] > 0.5, f"mixed-op hit-rate {cache['hit_rate']:.3f} not > 0.5")

    metrics = {
        "mix_wall_s": host_clock(wall),
        **_lat_metrics("op", op_lat),
        "ops_per_s": Metric(nops / wall, "ops/s", "info"),
        "hit_rate": Metric(cache["hit_rate"], "ratio", "higher"),
    }
    text = (
        f"{nclients} clients x 3 mixed ops (session, read_task, "
        f"read_range; {nbytes} bytes byte-verified) in {wall:.2f} s, "
        f"cache hit-rate {cache['hit_rate']:.2f}"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# The concurrency axis (nightly): one latency curve per session count.


def _sweep(ctx) -> ScenarioOutput:
    backend = counting_backend()
    write_cycle(backend, NWRITERS, ctx.params["engine"], path=PATH)
    metrics: "dict[str, Metric]" = {}
    lines = ["sessions  cold (s)  warm (s)  read p99 (ms)  hit rate"]
    for m in ctx.params["session_counts"]:
        gw = ReadGateway(
            backend=backend, cache_bytes=CACHE_BYTES, cache_block=CACHE_BLOCK
        )
        t0 = time.perf_counter()
        _, read_lat, _ = asyncio.run(_session_pass(gw, m))
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        asyncio.run(_session_pass(gw, m))
        warm = time.perf_counter() - t0
        hit_rate = gw.cache.snapshot()["hit_rate"]
        p99_ms = _percentile(read_lat, 0.99) * 1e3
        metrics[f"cold_wall_s[sessions={m}]"] = host_clock(cold)
        metrics[f"warm_wall_s[sessions={m}]"] = host_clock(warm)
        metrics[f"read_p99_ms[sessions={m}]"] = host_clock(p99_ms, "ms")
        metrics[f"hit_rate[sessions={m}]"] = Metric(hit_rate, "ratio", "higher")
        lines.append(
            f"{m:>8}  {cold:>8.2f}  {warm:>8.2f}  {p99_ms:>13.3f}  {hit_rate:>8.2f}"
        )
        gw.close()
    text = (
        f"{NWRITERS}-writer container under growing session worlds "
        "(cold + warm pass each):\n" + "\n".join(lines)
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Registration.

for _n in SERVE_SESSION_COUNTS:
    scenario(
        f"serve/load[sessions={_n}]",
        suite="serve",
        tags=grid_tags("serve", "data-plane", "load", _n in CI_SESSION_COUNTS),
        params={"sessions": _n, "engine": "bulk"},
    )(_load)

scenario(
    "serve/mix[sessions=256]",
    suite="serve",
    tags=grid_tags("serve", "data-plane", "mix", ci=True),
    params={"sessions": 256, "engine": "bulk"},
)(_mix)

scenario(
    "serve/sweep[nwriters=4096]",
    suite="serve",
    tags=grid_tags("serve", "data-plane", "sweep", ci=False),
    params={"session_counts": [64, 256, 1024], "engine": "bulk"},
)(_sweep)
