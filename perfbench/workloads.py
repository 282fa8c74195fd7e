"""The four workloads: seeded inputs, one closed-loop rep each, bytes verified.

A workload object is the set-up (inputs made from the seed; for ``serve-4k``
also the container build).  ``rep(tracer)`` runs one cycle on a fresh
in-memory store and returns its phase walls and the number of ops that
failed.  One op is one task stream, gateway session or stateless read whose
re-read bytes were compared against the seeded input.  Verification happens
inside the rank body and travels as the rank's result: bulk replay
re-executes bodies, so nothing is appended to shared state.

Why these four, and which layers each one loads, is in ``README.md``.
"""

from __future__ import annotations

import asyncio
import statistics
import zlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.backends import SimBackend
from repro.fs.simfs import SimFS
from repro.serve import ReadGateway
from repro.sion import (
    ChunkLayout,
    CoalescingWriter,
    Metablock1,
    Metablock2,
    buddy_path,
    recover_multifile,
)
from repro.sion.mapping import physical_path

from perfbench.tracing import UNTRACED

KiB = 1024
MiB = 1024 * KiB


@dataclass(frozen=True)
class Scale:
    """Sizes of one run; ``smoke`` exists for the test, ``full`` is the benchmark."""

    name: str
    tasks: int  # ctrl-16k / ckpt-16k writers
    readers: int  # ckpt-16k restart world
    stream_bytes: int  # data-stream bytes per task
    serve_writers: int
    serve_clients: int
    min_timed: int  # timed reps a run makes at least, whatever --seconds says


SCALES = {
    "full": Scale("full", 16384, 2048, 8 * MiB, 4096, 64, 2),
    "smoke": Scale("smoke", 512, 64, 512 * KiB, 512, 16, 2),
}


def sim_backend(fsblksize: int) -> SimBackend:
    """A fresh in-memory store: the numbers are the program's, not a disk's."""
    return SimBackend(SimFS(blocksize_override=fsblksize))


def set_bytes(backend: Any, path: str, nfiles: int, buddy: bool = False) -> int:
    """Sum of ``file_size`` over every physical file (and replica) of a set."""
    paths = [physical_path(path, f) for f in range(nfiles)]
    if buddy:
        paths += [buddy_path(path, f, nfiles) for f in range(nfiles)]
    return sum(backend.file_size(p) for p in paths)


def store_load(fs: SimFS, since: "dict[str, int] | None" = None) -> dict[str, float]:
    """What the store saw (since a snapshot of ``fs.op_counts``): metadata
    operations and MiB moved.  Exact, and the same on every run."""
    counts = {k: v - (since or {}).get(k, 0) for k, v in fs.op_counts.items()}
    moved = sum(v for k, v in counts.items() if k.endswith("_bytes"))
    return {"store_meta_ops": sum(counts.values()) - moved, "store_mb": moved / MiB}


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


class Ctrl:
    """Control plane (paper Fig. 3): many tasks, little data, direct mode."""

    name = "ctrl-16k"
    path = "/ctrl.sion"
    fsblksize = 4 * KiB
    warmups = 1
    #: Direct mode hands the store views of the application's buffers; the only
    #: fragments the library makes itself are its three metablock writes.
    copied_fragments = 3

    def __init__(self, seed: int, scale: Scale) -> None:
        rng = np.random.default_rng(seed)
        n = self.ntasks = scale.tasks
        # A seeded permutation of one fixed multiset of lengths: which rank
        # gets which length depends on the seed, the byte total (and so
        # space_amp) does not.  Sizes differ per rank so a uniform-only fast
        # path cannot flatter the workload.
        self.lengths = rng.permutation(np.linspace(16, 3000, n).astype(np.int64)).tolist()
        blob = rng.bytes(sum(self.lengths))
        ends = np.cumsum(self.lengths).tolist()
        self.payloads = [blob[e - k : e] for e, k in zip(ends, self.lengths)]
        self.user_bytes = len(blob)
        self.ops_per_rep = n
        self.opens_per_rep = 2 * n

    def programs(self, paropen: Callable, backend: Any) -> tuple[Callable, Callable]:
        """The write and the re-read rank bodies."""
        path, payloads, fsblksize = self.path, self.payloads, self.fsblksize

        def write(comm: Any) -> None:
            p = payloads[comm.rank]
            f = paropen(path, "w", comm, chunksize=len(p), fsblksize=fsblksize, backend=backend)
            f.fwrite(p)
            f.parclose()

        def read(comm: Any) -> bool:
            f = paropen(path, "r", comm, backend=backend)
            data = f.read_all()
            f.parclose()
            return data == payloads[comm.rank]

        return write, read

    def rep(self, tracer: Any) -> dict[str, Any]:
        t0 = perf_counter()
        plain = sim_backend(self.fsblksize)
        write, read = self.programs(tracer.paropen, tracer.backend(plain, sources=self.payloads))
        write_s, _ = timed(lambda: tracer.run_spmd(self.ntasks, write))
        read_s, ok = timed(lambda: tracer.run_spmd(self.ntasks, read))
        return {
            "cycle_s": perf_counter() - t0,
            "write_s": write_s,
            "read_s": read_s,
            "failed": self.ntasks - sum(ok),
            **store_load(plain.fs),
            "space_amp": set_bytes(plain, self.path, 1) / self.user_bytes,
        }


class DataStream:
    """Data plane (paper Figs. 4-5): few tasks, chunk-spanning streams."""

    name = "data-stream"
    path = "/data.sion"
    ntasks = 8
    nfiles = 2
    chunksize = 256 * KiB
    fsblksize = 64 * KiB
    piece = 12345  # chunk-spanning fwrite / fread size
    record = 200  # record size through the coalescing writer
    warmups = 2

    def __init__(self, seed: int, scale: Scale) -> None:
        self.per_task = scale.stream_bytes
        self.bulk_bytes = self.per_task * 3 // 4
        # One seeded buffer; rank r streams the window starting r*4 KiB into
        # it, so there are no per-task copies and no two ranks write the same.
        self.blob = np.random.default_rng(seed).bytes(self.per_task + self.ntasks * 4 * KiB)
        view = memoryview(self.blob)
        self.sources = [view[r * 4 * KiB : r * 4 * KiB + self.per_task] for r in range(self.ntasks)]
        self.crcs = [zlib.crc32(s) for s in self.sources]
        self.user_bytes = self.per_task * self.ntasks
        self.ops_per_rep = self.ntasks
        self.opens_per_rep = 2 * self.ntasks

    def expected_set_bytes(self) -> int:
        """File sizes of the set from ``ChunkLayout`` arithmetic alone."""
        local = self.ntasks // self.nfiles
        nblocks = -(-self.per_task // self.chunksize)
        last = self.per_task - (nblocks - 1) * self.chunksize
        mb2 = Metablock2([[self.chunksize] * (nblocks - 1) + [last]] * local)
        total = 0
        for f in range(self.nfiles):
            mb1 = Metablock1(
                fsblksize=self.fsblksize, ntasks_local=local, nfiles=self.nfiles, filenum=f,
                ntasks_global=self.ntasks, start_of_data=0, metablock2_offset=0,
                globalranks=list(range(f * local, (f + 1) * local)),
                chunksizes=[self.chunksize] * local,
            )
            layout = ChunkLayout(self.fsblksize, [self.chunksize] * local, mb1.encoded_size)
            total += layout.end_of_blocks(nblocks) + len(mb2.encode())
        return total

    def rep(self, tracer: Any) -> dict[str, Any]:
        path, sources, crcs, paropen = self.path, self.sources, self.crcs, tracer.paropen
        per_task, bulk_bytes, piece, record = self.per_task, self.bulk_bytes, self.piece, self.record
        t0 = perf_counter()
        plain = sim_backend(self.fsblksize)
        backend = tracer.backend(plain, sources=(self.blob,))

        def write(comm: Any) -> None:
            src = sources[comm.rank]
            f = paropen(path, "w", comm, chunksize=self.chunksize, fsblksize=self.fsblksize,
                        nfiles=self.nfiles, backend=backend)
            for o in range(0, bulk_bytes, piece):
                f.fwrite(src[o : min(o + piece, bulk_bytes)])
            # The record loop is one span: 10k spans per rank would cost more
            # than the coalescing they measure.
            with tracer.span("sion.write"):
                writer = CoalescingWriter(f, 64 * KiB)
                for o in range(bulk_bytes, per_task, record):
                    writer.write(src[o : o + record])
                writer.close()
            f.parclose()

        def read(comm: Any) -> bool:
            f = paropen(path, "r", comm, backend=backend)
            crc = nbytes = 0
            while not f.feof():
                data = f.fread(piece)
                crc = zlib.crc32(data, crc)
                nbytes += len(data)
            f.parclose()
            return nbytes == per_task and crc == crcs[comm.rank]

        write_s, _ = timed(lambda: tracer.run_spmd(self.ntasks, write))
        read_s, ok = timed(lambda: tracer.run_spmd(self.ntasks, read))
        load = store_load(plain.fs)
        stored = set_bytes(plain, path, self.nfiles)
        return {
            "cycle_s": perf_counter() - t0,
            "write_s": write_s,
            "read_s": read_s,
            "failed": self.ntasks - sum(ok),
            **load,
            "space_amp": stored / self.user_bytes,
            "layout_agrees": stored == self.expected_set_bytes(),
        }


class Ckpt:
    """Checkpoint/restart: collective write with replicas, loss, m != n restart."""

    name = "ckpt-16k"
    path = "/ckpt.sion"
    fsblksize = 4 * KiB
    per_task = KiB
    nfiles = 4
    warmups = 1

    def __init__(self, seed: int, scale: Scale) -> None:
        self.ntasks = scale.tasks
        self.nreaders = scale.readers
        self.blob = np.random.default_rng(seed).bytes(self.ntasks * self.per_task)
        self.user_bytes = len(self.blob)
        self.ops_per_rep = self.ntasks + self.nreaders
        self.opens_per_rep = self.ntasks + self.nreaders

    def write_half(self, tracer: Any, backend: Any, *, collectsize: "int | None" = 64,
                   buddy: bool = True) -> float:
        """The checkpoint write; the layer probes vary its two options."""
        view, per_task, paropen = memoryview(self.blob), self.per_task, tracer.paropen

        def write(comm: Any) -> None:
            f = paropen(self.path, "w", comm, chunksize=per_task, fsblksize=self.fsblksize,
                        nfiles=self.nfiles, collectsize=collectsize, shadow=True, buddy=buddy,
                        backend=backend)
            f.fwrite(view[comm.rank * per_task : (comm.rank + 1) * per_task])
            f.parclose()

        return timed(lambda: tracer.run_spmd(self.ntasks, write))[0]

    def lose_and_recover(self, tracer: Any, backend: Any) -> tuple[float, Any]:
        """Delete physical file 1, then rebuild the set from its replicas."""

        def recover() -> Any:
            backend.unlink(physical_path(self.path, 1))
            with tracer.span("sion.recovery"):
                return recover_multifile(self.path, backend=backend)

        return timed(recover)

    def rep(self, tracer: Any) -> dict[str, Any]:
        view, paropen = memoryview(self.blob), tracer.paropen
        share = self.user_bytes // self.nreaders
        t0 = perf_counter()
        plain = sim_backend(self.fsblksize)
        backend = tracer.backend(plain)
        write_s = self.write_half(tracer, backend)
        _, report = self.lose_and_recover(tracer, backend)

        def restart(comm: Any) -> bool:
            f = paropen(self.path, "r", comm, partitioned=True, collectsize=8, backend=backend)
            data = f.read_all()
            f.parclose()
            return data == view[comm.rank * share : (comm.rank + 1) * share]

        read_s, ok = timed(lambda: tracer.run_spmd(self.nreaders, restart))
        # Writers are verified through the readers: a reader's slice is the
        # concatenation of its writers' streams.
        bad_readers = self.nreaders - sum(ok)
        rebuilt = report.files_rebuilt_from_buddy == 1
        cycle_s = perf_counter() - t0
        load = store_load(plain.fs)
        return {
            "cycle_s": cycle_s,
            "write_s": write_s,
            "read_s": read_s,
            "failed": bad_readers * (1 + self.ntasks // self.nreaders) if rebuilt
            else self.ops_per_rep,
            **load,
            # The rebuilt file is byte-identical, so the sizes are the written ones.
            "space_amp": set_bytes(plain, self.path, self.nfiles, buddy=True) / self.user_bytes,
        }


class Serve:
    """The read gateway over one sealed container: sessions and ranged reads."""

    name = "serve-4k"
    path = "/serve.sion"
    fsblksize = 4 * KiB
    per_task = 16 * KiB
    nfiles = 2
    read_size = 1000
    cache_bytes = 256 * MiB  # holds the whole 64 MiB container: the gated reps never evict
    cache_block = 64 * KiB
    warmups = 1

    def __init__(self, seed: int, scale: Scale) -> None:
        rng = np.random.default_rng(seed)
        n = self.ntasks = scale.serve_writers
        self.nclients = scale.serve_clients
        self.blob = rng.bytes(n * self.per_task)
        self.ranged = list(zip(
            rng.integers(0, n, n).tolist(),
            rng.integers(0, self.per_task - self.read_size, n).tolist(),
        ))
        self.user_bytes = len(self.blob)
        self.ops_per_rep = 3 * n
        self.opens_per_rep = 0
        # The container build is set-up; its wall is this workload's write_s.
        self.backend = sim_backend(self.fsblksize)
        view, per_task = memoryview(self.blob), self.per_task

        def write(comm: Any) -> None:
            f = UNTRACED.paropen(self.path, "w", comm, chunksize=per_task,
                                 fsblksize=self.fsblksize, nfiles=self.nfiles,
                                 backend=self.backend)
            f.fwrite(view[comm.rank * per_task : (comm.rank + 1) * per_task])
            f.parclose()

        self.write_s = timed(lambda: UNTRACED.run_spmd(n, write))[0]
        self.space_amp = set_bytes(self.backend, self.path, self.nfiles) / self.user_bytes

    def gateway(self, tracer: Any, cache_bytes: "int | None" = None) -> ReadGateway:
        return ReadGateway(
            backend=tracer.backend(self.backend),
            cache_bytes=self.cache_bytes if cache_bytes is None else cache_bytes,
            cache_block=self.cache_block,
        )

    async def session_pass(self, gw: Any, latencies: "list[float] | None" = None) -> int:
        """Every writer stream drained once through a session; returns failures.

        Closed loop: ``nclients`` coroutines on one event loop, each taking
        the next stream only after closing its previous session.
        """
        view, per_task = memoryview(self.blob), self.per_task
        todo = iter(range(self.ntasks))
        failed = 0

        async def client() -> None:
            nonlocal failed
            for i in todo:
                t0 = perf_counter()
                sid = await gw.open_session(self.path, readers=self.ntasks, reader=i)
                pos, good = i * per_task, True
                while True:
                    data = await gw.read(sid, self.read_size)
                    if not data:
                        break
                    good &= data == view[pos : pos + len(data)]
                    pos += len(data)
                await gw.close_session(sid)
                if latencies is not None:
                    latencies.append(perf_counter() - t0)
                failed += not (good and pos == (i + 1) * per_task)

        await asyncio.gather(*(client() for _ in range(self.nclients)))
        return failed

    async def ranged_pass(self, gw: Any) -> int:
        """Stateless ``read_range`` calls at the seeded (rank, offset) pairs."""
        view, per_task, size = memoryview(self.blob), self.per_task, self.read_size
        todo = iter(self.ranged)
        failed = 0

        async def client() -> None:
            nonlocal failed
            for rank, offset in todo:
                data = await gw.read_range(self.path, rank, offset, size)
                lo = rank * per_task + offset
                failed += data != view[lo : lo + size]

        await asyncio.gather(*(client() for _ in range(self.nclients)))
        return failed

    def rep(self, tracer: Any) -> dict[str, Any]:
        latencies: list[float] = []

        def run_pass(coro: Any) -> tuple[float, int]:
            with tracer.span("serve"):
                return timed(lambda: asyncio.run(coro))

        t0 = perf_counter()
        before = dict(self.backend.fs.op_counts)
        raw = self.gateway(tracer)
        gw = tracer.gateway(raw)
        try:
            cold_s, f1 = run_pass(self.session_pass(gw))
            cold = raw.cache.snapshot()
            inner_cold = tracer.counts().get("data_read_calls", 0)
            warm_s, f2 = run_pass(self.session_pass(gw, latencies))
            warm = raw.cache.snapshot()
            inner_warm = tracer.counts().get("data_read_calls", 0) - inner_cold
            _, f3 = run_pass(self.ranged_pass(gw))
            sessions_peak = raw.stats_gateway.sessions_peak
        finally:
            raw.close()
        latencies.sort()
        lookups = warm["lookups"] - cold["lookups"]
        return {
            "cycle_s": perf_counter() - t0,
            "write_s": self.write_s,
            "read_s": warm_s,
            "cold_pass_s": cold_s,
            "session_p50_ms": statistics.median(latencies) * 1e3,
            "session_p99_ms": latencies[int(0.99 * len(latencies))] * 1e3,
            "failed": f1 + f2 + f3,
            **store_load(self.backend.fs, before),
            "space_amp": self.space_amp,
            "hit_rate_cold": cold["hit_rate"],
            "hit_rate_warm": (warm["hits"] - cold["hits"]) / lookups if lookups else 0.0,
            "bytes_served": warm["bytes_served"],
            "inner_reads_cold": inner_cold,
            "inner_reads_warm": inner_warm,
            "sessions_peak": sessions_peak,
        }


WORKLOADS = {w.name: w for w in (Ctrl, DataStream, Ckpt, Serve)}
