"""Layer probes: one layer at a time, at the size of the workload that loads it.

Every probe returns ``{metric name: value}``.  Walls are the best of a few
calls (three where a call is cheap, one where it takes seconds: layer metrics
carry no bound); counts are exact.  A probe that cannot run yields no metrics;
the caller reports its names as missing with the reason and carries on.

The probes are the same in every traced run, whatever the workload, so the
ledger always has every line.
"""

from __future__ import annotations

import asyncio
import dataclasses
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro import sion
from repro.backends import LocalBackend
from repro.backends.instrument import CountingBackend
from repro.fs.cache import ChunkCache
from repro.simmpi import run_spmd
from repro.sion import (
    ChunkLayout,
    CoalescingWriter,
    Metablock1,
    Metablock2,
    OpenSpec,
    ReadPartition,
    TaskMapping,
)

from perfbench.tracing import SPMD, UNTRACED, Counted
from perfbench.workloads import (
    KiB,
    MiB,
    Ckpt,
    Ctrl,
    DataStream,
    Scale,
    Serve,
    set_bytes,
    sim_backend,
    timed,
)


def best(fn: Callable[[], Any], k: int = 3) -> float:
    """Smallest wall of ``k`` calls."""
    return min(timed(fn)[0] for _ in range(k))


def waves4(comm: Any) -> None:
    """The four whole-world waves of an nfiles=1 open/close, with no library."""
    comm.gather(comm.rank)
    comm.bcast(comm.rank if comm.rank == 0 else None)
    comm.gather(comm.rank)
    comm.barrier()


class Probes:
    """Inputs shared by the probes, made once from the run's seed and scale."""

    def __init__(self, seed: int, scale: Scale, workload: Any, scratch: Path) -> None:
        self.seed, self.scale, self.scratch = seed, scale, scratch
        self.n = scale.tasks
        self.ctrl = workload if isinstance(workload, Ctrl) else Ctrl(seed, scale)
        self.serve_wl = workload if isinstance(workload, Serve) else Serve(seed, scale)
        self.waves4_s = 0.0

    def all(self) -> list[Callable[[], dict[str, float]]]:
        return [
            self.simmpi, self.proc, self.engine_stats, self.pool, self.openspec, self.format,
            self.layout_mapping, self.serial, self.streams, self.checkpoint,
            self.stores, self.cache, self.serve,
        ]

    # -- simmpi -------------------------------------------------------------

    def simmpi(self) -> dict[str, float]:
        n = self.n

        def split_gatherv(comm: Any) -> None:
            lcom = comm.split(color=comm.rank * 4 // comm.size, key=comm.rank)
            ccom = lcom.split(color=lcom.rank // 64, key=lcom.rank)
            got = ccom.gatherv((b"x" * 64,))
            ccom.scatterv(got)
            ccom.barrier()

        self.waves4_s = best(lambda: run_spmd(n, waves4, **SPMD))
        return {
            "simmpi.bulk.empty_world_s": best(lambda: run_spmd(n, lambda comm: None, **SPMD)),
            "simmpi.bulk.waves4_s": self.waves4_s,
            "simmpi.bulk.split_gatherv_s": best(lambda: run_spmd(n, split_gatherv, **SPMD), 2),
            "simmpi.comm.waves4_256_s": best(
                lambda: run_spmd(min(256, n), waves4, engine="threads", timeout=600)),
        }

    def proc(self) -> dict[str, float]:
        """Two real processes; its own probe, since the engine may not start here."""
        return {"simmpi.proc.waves4_2_s": best(
            lambda: run_spmd(2, waves4, engine="proc", timeout=60), 1)}

    def engine_stats(self) -> dict[str, float]:
        """Replay counters and phase walls of the ``ctrl-16k`` write half."""
        n = self.n
        write, _ = self.ctrl.programs(sion.paropen, sim_backend(self.ctrl.fsblksize))
        stats: dict = {}
        t0 = time.monotonic()  # the engine stamps its waves with this clock
        run_spmd(n, write, engine_stats=stats, **SPMD)
        world = sorted((w for w in stats["waves"] if w[0] == n), key=lambda w: w[3])
        out = {
            "simmpi.bulk.executions_per_rank": stats["executions"] / n,
            "simmpi.bulk.waves": len(stats["waves"]),
            "simmpi.bulk.programs": stats["programs"],
            "simmpi.bulk.collective_wait_s": sum(w[3] - w[2] for w in world),
        }
        if [w[1] for w in world] == ["gather", "bcast", "gather", "barrier"]:
            # Open ends when the geometry bcast drains, write when the
            # block-table gather drains, close at the final barrier.
            out["simmpi.bulk.phase_open_s"] = world[1][3] - t0
            out["simmpi.bulk.phase_write_s"] = world[2][3] - world[1][3]
            out["simmpi.bulk.phase_close_s"] = world[3][3] - world[2][3]
        return out

    def pool(self) -> dict[str, float]:
        """What the default worker pool costs over one worker (informational)."""
        quarter = Ctrl(self.seed, dataclasses.replace(self.scale, tasks=self.n // 4))

        def cycle(**spmd: Any) -> None:
            write, read = quarter.programs(sion.paropen, sim_backend(quarter.fsblksize))
            run_spmd(quarter.ntasks, write, **spmd)
            run_spmd(quarter.ntasks, read, **spmd)

        one = best(lambda: cycle(**SPMD), 2)
        pooled = best(lambda: cycle(engine="bulk", timeout=600), 1)
        return {"simmpi.bulk.pool_default_over_1": pooled / one}

    # -- sion: planner, metablocks, layout, mapping, serial tools ------------

    def openspec(self) -> dict[str, float]:
        n, lengths, fsblk = self.n, self.ctrl.lengths, self.ctrl.fsblksize
        backend = sim_backend(fsblk)
        readers = max(1, n // 8)

        def spec_builds() -> None:
            for k in range(1000):
                OpenSpec.for_paropen("/spec.sion", "w", chunksize=k + 1, fsblksize=fsblk)

        def write(comm: Any) -> None:
            sion.paropen("/oc.sion", "w", comm, chunksize=lengths[comm.rank], fsblksize=fsblk,
                         backend=backend).parclose()

        def read(comm: Any) -> None:
            sion.paropen("/oc.sion", "r", comm, backend=backend).parclose()

        def partitioned(comm: Any) -> None:
            sion.paropen("/oc.sion", "r", comm, partitioned=True, collectsize=8,
                         backend=backend).parclose()

        write_s = best(lambda: run_spmd(n, write, **SPMD), 1)
        return {
            "sion.openspec.spec_build_us": best(spec_builds) * 1e3,
            "sion.openspec.write_open_close_s": write_s,
            "sion.openspec.write_self_s": write_s - self.waves4_s,
            "sion.openspec.read_open_close_s": best(lambda: run_spmd(n, read, **SPMD), 1),
            "sion.openspec.partitioned_open_close_s": best(
                lambda: run_spmd(readers, partitioned, **SPMD), 1),
        }

    def format(self) -> dict[str, float]:
        n, lengths, fsblk = self.n, self.ctrl.lengths, self.ctrl.fsblksize
        mb1 = Metablock1(
            fsblksize=fsblk, ntasks_local=n, nfiles=1, filenum=0, ntasks_global=n,
            start_of_data=0, metablock2_offset=0, globalranks=list(range(n)), chunksizes=lengths,
        )
        mb2 = Metablock2([[k] for k in lengths])
        enc1, enc2 = mb1.encode(), mb2.encode()
        backend = sim_backend(fsblk)
        with backend.open("/mb", "wb") as f:
            f.pwrite(0, enc1)
            f.pwrite(len(enc1), enc2)
        with backend.open("/mb", "rb") as f:
            return {
                "sion.format.mb1_encode_s": best(mb1.encode),
                "sion.format.mb1_decode_s": best(lambda: Metablock1.decode_from(f)),
                "sion.format.mb2_encode_s": best(mb2.encode),
                "sion.format.mb2_decode_s": best(lambda: Metablock2.decode_from(f, len(enc1))),
                "sion.format.mb1_bytes": len(enc1),
                "sion.format.mb2_bytes": len(enc2),
            }

    def layout_mapping(self) -> dict[str, float]:
        n, lengths, fsblk = self.n, self.ctrl.lengths, self.ctrl.fsblksize
        mb1_size = 60 + 16 * n
        layout = ChunkLayout(fsblk, lengths, mb1_size)
        files = [r % 4 for r in range(n)]
        # The balanced partition is cached per (writers, readers); a different
        # reader count per call keeps every call a build.
        readers = iter(range(max(1, n // 8), 0, -1))
        return {
            "sion.layout.build_s": best(lambda: ChunkLayout(fsblk, lengths, mb1_size)),
            "sion.layout.read_requests_s": best(
                lambda: [layout.read_requests(t, [lengths[t]]) for t in range(n)]),
            "sion.mapping.custom_build_s": best(lambda: TaskMapping.custom(files)),
            "sion.mapping.partition_build_s": best(
                lambda: ReadPartition.balanced(n, next(readers))),
        }

    def serial(self) -> dict[str, float]:
        n, lengths, fsblk = self.n, self.ctrl.lengths, self.ctrl.fsblksize
        backend = sim_backend(fsblk)

        def create() -> None:
            with sion.open("/serial.sion", "w", chunksizes=lengths, fsblksize=fsblk,
                           backend=backend) as f:
                for rank in range(0, n, max(1, n // 16)):
                    f.seek(rank)
                    f.fwrite(b"\xab" * 16)

        def scan() -> None:
            with sion.open("/serial.sion", "r", backend=backend) as f:
                f.get_locations()

        return {"sion.serial.create_s": best(create), "sion.serial.scan_s": best(scan)}

    # -- sion: one task's stream ---------------------------------------------

    def streams(self) -> dict[str, float]:
        """One single-task stream at the ``data-stream`` sizes.

        A one-rank world never parks at a collective, so the body runs once
        and can time its own loops.
        """
        nbytes, piece, record = self.scale.stream_bytes, DataStream.piece, DataStream.record
        src = memoryview(bytes(nbytes))
        backend = sim_backend(DataStream.fsblksize)
        geometry = {"chunksize": DataStream.chunksize, "fsblksize": DataStream.fsblksize,
                    "backend": backend}

        def body(comm: Any) -> tuple[float, float, int]:
            f = sion.paropen("/one.sion", "w", comm, **geometry)
            fwrite_s = best(lambda: [f.fwrite(src[o : o + piece])
                                     for o in range(0, nbytes, piece)], 1)
            f.parclose()
            f = sion.paropen("/records.sion", "w", comm, **geometry)
            writer = CoalescingWriter(f, 64 * KiB)
            records_s = best(lambda: [writer.write(src[o : o + record])
                                      for o in range(0, nbytes // 4, record)], 1)
            writer.close()
            f.parclose()
            return fwrite_s, records_s, writer.flushes

        def drain() -> None:
            with sion.open_rank("/one.sion", 0, backend=backend) as f:
                while f.fread(piece):
                    pass

        (fwrite_s, records_s, flushes), = run_spmd(1, body, **SPMD)
        calls = -(-nbytes // piece)
        fread_s = best(drain, 1)
        return {
            "sion.readwrite.fwrite_us_per_call": fwrite_s / calls * 1e6,
            "sion.readwrite.fread_us_per_call": fread_s / calls * 1e6,
            "sion.readwrite.fwrite_mb_per_s": nbytes / MiB / fwrite_s,
            "sion.readwrite.fread_mb_per_s": nbytes / MiB / fread_s,
            "sion.buffering.write_us_per_record": records_s / (nbytes // 4 // record) * 1e6,
            "sion.buffering.flushes": flushes,
        }

    # -- sion: collective mode, replicas, recovery ---------------------------

    def checkpoint(self) -> dict[str, float]:
        """The ``ckpt-16k`` write half with one option varied at a time.

        At a quarter of the workload's task count: three more 16k-task writes
        would not fit the run-time cap, and a ratio of two walls holds its
        value at 4k.
        """
        ck = Ckpt(self.seed, dataclasses.replace(self.scale, tasks=max(self.n // 4, Ckpt.nfiles)))

        def write(**options: Any) -> tuple[float, CountingBackend]:
            backend = CountingBackend(sim_backend(ck.fsblksize))
            return ck.write_half(UNTRACED, backend, **options), backend

        write()  # warm-up, so the first variant timed is not the cold one
        full_s, backend = write()
        direct_s, _ = write(collectsize=None)
        plain_s, _ = write(buddy=False)
        counts = backend.snapshot()
        primary = set_bytes(backend, ck.path, ck.nfiles)
        replica = set_bytes(backend, ck.path, ck.nfiles, buddy=True) - primary
        recover_s, report = ck.lose_and_recover(UNTRACED, backend)
        return {
            "sion.collective.write_over_direct": full_s / direct_s,
            "sion.collective.data_write_calls": counts["data_write_calls"],
            "sion.collective.fragments_per_call":
                counts["fragments_written"] / counts["data_write_calls"],
            "sion.buddy.write_over_plain": full_s / plain_s,
            "sion.buddy.replica_bytes_ratio": replica / primary,
            "sion.recovery.recover_s": recover_s,
            "sion.recovery.bytes_recovered": report.bytes_recovered,
            "sion.recovery.files_rebuilt_from_buddy": report.files_rebuilt_from_buddy,
        }

    # -- stores and cache ----------------------------------------------------

    def stores(self) -> dict[str, float]:
        """Vectored I/O of 16 MiB as strided 64 KiB fragments, per store."""
        frag, count = 64 * KiB, 256
        data = memoryview(bytes(frag))
        requests = [(2 * k * frag, frag) for k in range(count)]
        fragments = [(offset, data) for offset, _ in requests]
        mb = frag * count / MiB
        out = {}
        tmp = Path(tempfile.mkdtemp(prefix="localfs-", dir=self.scratch))
        try:
            for prefix, backend, path in (
                ("fs.simfs", sim_backend(frag), "/store"),
                ("backends.localfs", LocalBackend(), str(tmp / "store")),
            ):
                with backend.open(path, "w+b") as f:
                    write_s = best(lambda: f.scatter_write(fragments))
                    read_s = best(lambda: f.gather_read(requests))
                out[f"{prefix}.scatter_write_mb_per_s"] = mb / write_s
                out[f"{prefix}.gather_read_mb_per_s"] = mb / read_s
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return out

    def cache(self) -> dict[str, float]:
        cache = ChunkCache(64 * MiB, 64 * KiB)
        block = bytes(64 * KiB)
        keys = [(1, "/probe", b) for b in range(256)]
        for key in keys:
            cache.put(key, block)
        lookups = keys * 40
        return {"fs.cache.get_us": best(lambda: [cache.get(k) for k in lookups]) / len(lookups) * 1e6}

    # -- serve ---------------------------------------------------------------

    def serve(self) -> dict[str, float]:
        wl = self.serve_wl
        rep = wl.rep(Counted())
        thrash = wl.gateway(UNTRACED, cache_bytes=wl.user_bytes // 4)
        try:
            thrash_s, _ = timed(lambda: asyncio.run(wl.session_pass(thrash)))
            evicted = thrash.cache.snapshot()
        finally:
            thrash.close()

        def container_open() -> None:
            gw = wl.gateway(UNTRACED)
            try:
                gw.open_container(wl.path)
            finally:
                gw.close()

        calls = asyncio.run(self._one_client(wl))
        return {
            "fs.cache.hit_rate_cold": rep["hit_rate_cold"],
            "fs.cache.hit_rate_warm": rep["hit_rate_warm"],
            "fs.cache.bytes_served": rep["bytes_served"],
            "fs.cache.thrash_hit_rate": evicted["hit_rate"],
            "fs.cache.thrash_evictions": evicted["evictions"],
            "fs.cache.thrash_pass_s": thrash_s,
            "backends.caching.inner_reads_cold": rep["inner_reads_cold"],
            "backends.caching.inner_reads_warm": rep["inner_reads_warm"],
            "serve.gateway.container_open_ms": best(container_open) * 1e3,
            "serve.gateway.open_session_us": calls["open_session"],
            "serve.gateway.read_us": calls["read"],
            "serve.gateway.stateless_us": calls["read_range"],
            "serve.gateway.session_p50_ms": rep["session_p50_ms"],
            "serve.gateway.session_p99_ms": rep["session_p99_ms"],
            "serve.gateway.cold_pass_s": rep["cold_pass_s"],
            "serve.gateway.sessions_per_s": wl.ntasks / rep["read_s"],
            "serve.gateway.sessions_peak": rep["sessions_peak"],
        }

    async def _one_client(self, wl: Serve) -> dict[str, float]:
        """Median wall per gateway call with nothing else on the event loop."""
        walls: dict[str, list[float]] = {"open_session": [], "read": [], "read_range": []}

        async def call(name: str, *args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            out = await getattr(gw, name)(*args, **kwargs)
            walls[name].append(perf_counter() - t0)
            return out

        gw = wl.gateway(UNTRACED)
        try:
            for i in range(0, wl.ntasks, max(1, wl.ntasks // 256)):
                sid = await call("open_session", wl.path, readers=wl.ntasks, reader=i)
                while await call("read", sid, wl.read_size):
                    pass
                await gw.close_session(sid)
            for rank, offset in wl.ranged[:256]:
                await call("read_range", wl.path, rank, offset, wl.read_size)
        finally:
            gw.close()
        return {name: statistics.median(w) * 1e6 for name, w in walls.items()}
