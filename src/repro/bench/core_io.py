"""``core-io`` scenarios: copy counts and backend-call counts as metrics.

The zero-copy/vectored data plane makes two promises (ISSUE 2):

1. a chunk-spanning ``fwrite`` of N fragments crosses the backend
   boundary **once** (one ``scatter_write``), not N times;
2. a ``memoryview`` payload reaches the backend with **zero**
   intermediate ``bytes()`` materializations.

These scenarios measure both with the instrumented
:class:`~repro.backends.instrument.CountingBackend` over the simulated
file system, which makes every count fully deterministic: each scenario
pins its counts exactly (so a reintroduced copy or a de-vectorized write
path fails the run itself), and the smoke baseline gates them as metrics
on top.  A wall-clock throughput scenario (``better="info"``) rides
along for trending.
"""

from __future__ import annotations

import time

from repro.bench.registry import scenario
from repro.bench.results import Metric, ScenarioOutput
from repro.bench.scaffold import FSBLK, KiB, counting_backend, pin
from repro.sion import serial
from repro.sion.buffering import CoalescingWriter


def _payload(nbytes: int) -> bytearray:
    return bytearray(bytes(range(256)) * (nbytes // 256) + b"\xAA" * (nbytes % 256))


def _delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: after[k] - before[k] for k in after}


def _count_metrics(prefix: str, d: dict[str, int]) -> dict[str, Metric]:
    """Deterministic counts, gated lower-is-better."""
    return {
        f"{prefix}_backend_calls": Metric(d["data_write_calls"], "calls", "lower"),
        f"{prefix}_fragments": Metric(d["fragments_written"], "fragments", "lower"),
        f"{prefix}_copies": Metric(d["copied_fragments"], "copies", "lower"),
        f"{prefix}_seeks": Metric(d["seeks"], "calls", "lower"),
    }


# --------------------------------------------------------------------------
# Serial write path: one chunk-spanning fwrite.


@scenario(
    "core-io/fwrite-span",
    suite="smoke",
    tags=("core_io", "zero-copy"),
    params={"chunksize": 16 * KiB, "payload_bytes": 104 * KiB},
)
def core_io_fwrite_span(ctx) -> ScenarioOutput:
    chunksize, nbytes = ctx.params["chunksize"], ctx.params["payload_bytes"]
    nfrag = -(-nbytes // chunksize)
    backend = counting_backend()
    payload = _payload(nbytes)
    with serial.open(
        "/span.sion", "w", chunksizes=[chunksize], fsblksize=FSBLK, backend=backend
    ) as f:
        f.seek(0, 0, 0)
        backend.track_source(payload)
        before = backend.snapshot()
        f.fwrite(memoryview(payload))
        after = backend.snapshot()
        backend.clear_sources()
    d = _delta(after, before)
    pin(d["fragments_written"], nfrag, "fwrite fragments")
    pin(d["data_write_calls"], 1, "fwrite vectored backend calls")
    pin(d["copied_fragments"], 0, "copies of the memoryview payload")
    pin(d["seeks"], 0, "seeks on the positioned chunk data path")
    metrics = _count_metrics("fwrite", d)
    text = (
        f"fwrite of {nbytes // KiB} KiB across {nfrag} chunks of "
        f"{chunksize // KiB} KiB: {d['data_write_calls']} backend call(s), "
        f"{d['fragments_written']} fragment(s), {d['copied_fragments']} "
        f"copie(s), {d['seeks']} seek(s)"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Serial read path: one chunk-spanning fread over the same multifile.


@scenario(
    "core-io/read-gather",
    suite="smoke",
    tags=("core_io",),
    params={"chunksize": 16 * KiB, "payload_bytes": 104 * KiB},
)
def core_io_read_gather(ctx) -> ScenarioOutput:
    chunksize, nbytes = ctx.params["chunksize"], ctx.params["payload_bytes"]
    backend = counting_backend()
    payload = _payload(nbytes)
    with serial.open(
        "/rg.sion", "w", chunksizes=[chunksize], fsblksize=FSBLK, backend=backend
    ) as f:
        f.seek(0, 0, 0)
        f.fwrite(payload)
    with serial.open("/rg.sion", "r", backend=backend) as f:
        f.seek(0, 0, 0)
        before = backend.snapshot()
        data = f.fread(nbytes)
        after = backend.snapshot()
    if data != bytes(payload):
        raise AssertionError("read-gather returned corrupted payload")
    d = _delta(after, before)
    pin(d["data_read_calls"], 1, "fread vectored backend calls")
    pin(d["seeks"], 0, "fread seeks")
    metrics = {
        "fread_backend_calls": Metric(d["data_read_calls"], "calls", "lower"),
        "fread_seeks": Metric(d["seeks"], "calls", "lower"),
    }
    text = (
        f"fread of {nbytes // KiB} KiB across "
        f"{-(-nbytes // chunksize)} chunks: {d['data_read_calls']} backend "
        f"call(s), {d['seeks']} seek(s)"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Coalesced small writes plus the large-write bypass.


@scenario(
    "core-io/coalesced-flush",
    suite="smoke",
    tags=("core_io", "zero-copy"),
    params={
        "chunksize": 4 * KiB,
        "buffer_size": 16 * KiB,
        "record_bytes": 1 * KiB,
        "records": 48,
        "bypass_bytes": 32 * KiB,
    },
)
def core_io_coalesced(ctx) -> ScenarioOutput:
    p = ctx.params
    backend = counting_backend()
    with serial.open(
        "/co.sion", "w", chunksizes=[p["chunksize"]], fsblksize=FSBLK, backend=backend
    ) as f:
        f.seek(0, 0, 0)
        w = CoalescingWriter(f, buffer_size=p["buffer_size"])
        record = _payload(p["record_bytes"])
        before = backend.snapshot()
        for _ in range(p["records"]):
            w.write(record)
        w.flush()
        mid = backend.snapshot()
        bypass = _payload(p["bypass_bytes"])
        backend.track_source(bypass)
        w.write(memoryview(bypass))
        after = backend.snapshot()
        backend.clear_sources()
        w.close()
        flushes = w.flushes
    coalesced = _delta(mid, before)
    direct = _delta(after, mid)
    # One vectored call per flush, not one per chunk fragment; the
    # large-write bypass forwards the caller's view untouched.
    volume = p["records"] * p["record_bytes"]
    pin(coalesced["data_write_calls"], volume // p["buffer_size"], "coalesced flush calls")
    pin(coalesced["fragments_written"], volume // p["chunksize"], "coalesced fragments")
    pin(direct["data_write_calls"], 1, "bypass backend calls")
    pin(direct["copied_fragments"], 0, "bypass copies")
    metrics = {
        "coalesced_backend_calls": Metric(
            coalesced["data_write_calls"], "calls", "lower"
        ),
        "coalesced_flushes": Metric(flushes, "flushes", "lower"),
        "bypass_backend_calls": Metric(direct["data_write_calls"], "calls", "lower"),
        "bypass_copies": Metric(direct["copied_fragments"], "copies", "lower"),
    }
    text = (
        f"{p['records']}x{p['record_bytes'] // KiB} KiB coalesced into "
        f"{p['buffer_size'] // KiB} KiB flushes over {p['chunksize'] // KiB} KiB "
        f"chunks: {coalesced['data_write_calls']} backend call(s); "
        f"{p['bypass_bytes'] // KiB} KiB bypass: {direct['data_write_calls']} "
        f"call(s), {direct['copied_fragments']} copie(s)"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Parallel write/read path (TaskStream) via the collective API.


@scenario(
    "core-io/paropen-span",
    suite="smoke",
    tags=("core_io", "zero-copy"),
    params={"ntasks": 2, "chunksize": 4 * KiB, "payload_bytes": 18 * KiB},
)
def core_io_paropen_span(ctx) -> ScenarioOutput:
    from repro.simmpi import run_spmd
    from repro.sion import paropen

    p = ctx.params
    backend = counting_backend()
    payloads = [_payload(p["payload_bytes"]) for _ in range(p["ntasks"])]

    def write_task(comm):
        f = paropen(
            "/par.sion", "w", comm, chunksize=p["chunksize"],
            fsblksize=FSBLK, backend=backend,
        )
        backend.track_source(payloads[comm.rank])
        comm.barrier()
        before = backend.snapshot() if comm.rank == 0 else None
        comm.barrier()  # snapshot taken before any task starts writing
        f.fwrite(memoryview(payloads[comm.rank]))
        comm.barrier()  # every task done writing before the second snapshot
        after = backend.snapshot() if comm.rank == 0 else None
        comm.barrier()
        f.parclose()
        return (before, after) if comm.rank == 0 else None

    snaps = run_spmd(p["ntasks"], write_task)
    backend.clear_sources()
    before, after = snaps[0]

    def read_task(comm):
        f = paropen("/par.sion", "r", backend=backend, comm=comm)
        data = f.read_all()
        f.parclose()
        return data

    datas = run_spmd(p["ntasks"], read_task)
    if datas != [bytes(q) for q in payloads]:
        raise AssertionError("paropen roundtrip corrupted payloads")
    d = _delta(after, before)
    nfrag = -(-p["payload_bytes"] // p["chunksize"]) * p["ntasks"]
    pin(d["data_write_calls"], p["ntasks"], "scatter_writes (one per task)")
    pin(d["fragments_written"], nfrag, "parallel fwrite fragments")
    pin(d["copied_fragments"], 0, "parallel fwrite copies")
    pin(d["seeks"], 0, "parallel fwrite seeks")
    metrics = _count_metrics("par_fwrite", d)
    text = (
        f"{p['ntasks']} tasks x {p['payload_bytes'] // KiB} KiB over "
        f"{p['chunksize'] // KiB} KiB chunks ({nfrag} fragments total): "
        f"{d['data_write_calls']} backend call(s), {d['copied_fragments']} "
        f"copie(s), {d['seeks']} seek(s)"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Wall-clock throughput through the full serial stack (info: never gated).


@scenario(
    "core-io/throughput",
    suite="smoke",
    tags=("core_io", "wallclock"),
    params={"chunksize": 256 * KiB, "payload_bytes": 8 * 1024 * KiB, "rounds": 3},
)
def core_io_throughput(ctx) -> ScenarioOutput:
    p = ctx.params
    payload = _payload(p["payload_bytes"])
    best = float("inf")
    calls = None
    for r in range(p["rounds"]):
        backend = counting_backend()
        t0 = time.perf_counter()
        with serial.open(
            f"/tp{r}.sion", "w", chunksizes=[p["chunksize"]],
            fsblksize=FSBLK, backend=backend,
        ) as f:
            f.seek(0, 0, 0)
            f.fwrite(memoryview(payload))
        best = min(best, time.perf_counter() - t0)
        calls = backend.snapshot()
    assert calls is not None
    # One data call plus the three metadata writes of a create/close cycle.
    pin(calls["data_write_calls"], 4, "backend calls of a create/fwrite/close cycle")
    metrics = {
        "write_wall_s": Metric(best, better="info"),
        "write_mb_s": Metric(p["payload_bytes"] / best / 1e6, "MB/s", "info"),
        "cycle_backend_calls": Metric(calls["data_write_calls"], "calls", "lower"),
    }
    text = (
        f"{p['payload_bytes'] // KiB} KiB via fwrite + close: best of "
        f"{p['rounds']} = {best * 1e3:.1f} ms "
        f"({p['payload_bytes'] / best / 1e6:.0f} MB/s, "
        f"{calls['data_write_calls']} backend data calls)"
    )
    return ScenarioOutput(metrics=metrics, text=text)
