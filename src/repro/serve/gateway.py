"""The asyncio read gateway: sealed containers served as a long-lived store.

One :class:`ReadGateway` owns three resident layers:

* a **container table** — each sealed multifile is loaded once by the
  set loader (:func:`~repro.sion.loader.load_set`: every physical file
  opened once, checked against file 0, its handle kept) into the one
  open-set object the serial global view is too
  (:class:`~repro.sion.serial.SealedSet`: a
  :class:`~repro.sion.openspec.ReadPlan` plus one read handle per file),
  and every later session is compiled from that in-memory metadata (this
  is the metadata half of the cache);
* a shared :class:`~repro.fs.cache.ChunkCache` — chunk payload served
  block-granularly with LRU eviction against a byte budget, entries
  tagged with the container's *generation* so a re-sealed file never
  serves stale bytes;
* **sessions** — read cursors compiled on demand from the same
  :class:`~repro.sion.mapping.ReadPartition` arithmetic the SPMD
  partitioned read uses: a session *is* the library's read cursor
  (:class:`~repro.sion.readwrite.PartitionStream`) over a contiguous
  slice of writer task streams, drained with record (``fread``)
  semantics, while stateless ranged reads address any writer stream at
  any logical offset.

Freshness contract (generation tags): every opened container records,
per physical file, the backend's stat-level ``identity_token``
(mtime/inode on the local FS, the exact mutation version in the
simulator — never a data read).  Session opens re-probe the tokens; any
mismatch triggers a full metadata reload under a fresh generation, and
the old generation's cache entries are dropped wholesale (chunk payload
can mutate without the metablocks changing, so a mismatched token is
never second-guessed).  On a backend whose token cannot see a given
re-seal (the default token folds only sizes), call
:meth:`ReadGateway.refresh` to force a new generation.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Sequence

from repro.backends.base import Backend
from repro.backends.caching import CachingRawFile
from repro.backends.localfs import LocalBackend
from repro.errors import SionUsageError
from repro.fs.cache import DEFAULT_CACHE_BLOCK, ChunkCache
from repro.sion.loader import load_set
from repro.sion.mapping import ReadPartition
from repro.sion.openspec import ReadPlan
from repro.sion.readwrite import PartitionStream
from repro.sion.serial import SealedSet

#: Default chunk-cache byte budget of a gateway that is not given one.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


@dataclass
class GatewayStats:
    """Gateway-level telemetry (the cache keeps its own, see ``snapshot``)."""

    containers_opened: int = 0
    container_reuses: int = 0
    reseals_detected: int = 0
    sessions_opened: int = 0
    sessions_active: int = 0
    sessions_peak: int = 0
    reads: int = 0
    bytes_served: int = 0


class ContainerHandle(SealedSet):
    """One sealed multifile held open by the gateway.

    The open-set object (:class:`~repro.sion.serial.SealedSet`: the
    container's :class:`~repro.sion.openspec.ReadPlan`, the same object an
    SPMD read broadcasts, plus one caching read handle per physical file)
    under a generation, with the identity tokens that revalidate it.  It
    holds no cursor, no cache and no lock: a ranged read compiles a fresh
    cursor per call, so sessions and stateless reads on any thread share
    it freely.
    """

    def __init__(
        self,
        path: str,
        generation: int,
        plan: ReadPlan,
        raws: "list[CachingRawFile]",
        tokens: Sequence[tuple],
    ) -> None:
        """Bind the decoded metadata of ``path`` under ``generation``.

        ``raws`` and ``tokens`` are per physical file: its read handle
        and its identity token at open time.
        """
        super().__init__(plan, raws)
        self.path = path
        self.generation = generation
        #: Per-file identity tokens at open time (the revalidation probe).
        self.tokens = tuple(tokens)

    def read_range(self, grank: int, offset: int, n: int) -> bytes:
        """Up to ``n`` bytes of stream ``grank`` starting at logical ``offset``.

        The offset addresses the *recorded* chunk-stream bytes; ranged
        addressing of a compressed stream is rejected (offsets into
        deflate output are not meaningful record positions — use
        :meth:`read_task` or a session).  The stream's block prefix sums
        turn the offset into a ``(block, pos)`` seek of a fresh stream,
        read through the one read cursor.

        Raises :class:`~repro.errors.SionUsageError` on a negative
        offset/size or a compressed container.
        """
        if self.compressed:
            raise SionUsageError(
                "ranged reads are unavailable with transparent compression; "
                "use read_task or a record session"
            )
        if offset < 0 or n < 0:
            raise SionUsageError("offset and size must be non-negative")
        stream = self.stream(grank)
        prefix = [0, *itertools.accumulate(self.plan.row(grank))]
        if offset >= prefix[-1] or n == 0:
            return b""
        block = bisect_right(prefix, offset) - 1
        stream.seek_logical(block, offset - prefix[block])
        return PartitionStream([stream]).fread(n)


class GatewaySession(PartitionStream):
    """One client's record-read cursor over a slice of writer streams.

    The SPMD partitioned reader's cursor, served remotely: the session
    owns a contiguous slice of the container's task streams
    (``readers``/``reader`` name the slice exactly like
    :class:`~repro.sion.mapping.ReadPartition`, ``rank`` selects a
    single stream) and drains it with ``fread`` semantics across chunk
    and stream boundaries — decompressing per stream when the container
    was sealed with ``compress=True``.  The physical handles belong to
    the container, so :meth:`close` only retires the cursor.
    """

    def __init__(
        self, session_id: int, container: ContainerHandle, writers: Sequence[int]
    ) -> None:
        """Compile the session's cursor over ``writers`` (global ranks)."""
        self.id = session_id
        self.container = container
        self.writers = tuple(writers)
        super().__init__(
            [container.stream(g) for g in self.writers],
            compress=container.compressed,
        )


class ReadGateway:
    """Long-lived asyncio read gateway over sealed multifile containers.

    The in-process client API: open a container once, compile read
    sessions on demand, answer concurrent ranged/record reads from any
    number of asyncio tasks.  All session state is per-session, so
    thousands of coroutines interleave freely; each read yields to the
    event loop once for fairness.

    The synchronous core (:meth:`open_container`,
    :meth:`ContainerHandle.read_range`, ...) is also usable directly
    from non-async code — the SPMD engines, tools, and tests do so.
    """

    def __init__(
        self,
        backend: "Backend | None" = None,
        *,
        cache: "ChunkCache | None" = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        cache_block: int = DEFAULT_CACHE_BLOCK,
    ) -> None:
        """Create a gateway over ``backend`` (default: the local FS).

        ``cache`` shares an existing :class:`ChunkCache` between several
        gateways; otherwise a private cache with ``cache_bytes`` budget
        and ``cache_block`` granularity is created.  ``cache_bytes=0``
        disables payload caching without changing any code path.
        """
        self.backend = backend if backend is not None else LocalBackend()
        self.cache = cache if cache is not None else ChunkCache(cache_bytes, cache_block)
        self.stats_gateway = GatewayStats()
        self._containers: dict[str, ContainerHandle] = {}
        self._sessions: dict[int, GatewaySession] = {}
        self._session_ids = itertools.count(1)
        self._generations = itertools.count(1)
        self._lock = threading.RLock()

    # -- container management (sync core) ------------------------------------

    def open_container(self, path: str, *, refresh: bool = False) -> ContainerHandle:
        """Open (or reuse) the sealed container at ``path``.

        The fast path — container already resident and every physical
        file's ``identity_token`` unchanged — costs one stat per file,
        never a data read.  A token mismatch means the file mutated: the
        metadata is reloaded under a fresh generation and the old
        generation's cache entries are dropped.  ``refresh=True`` forces
        the same reload unconditionally (the escape hatch for a re-seal
        the backend's token cannot see).

        Raises :class:`~repro.errors.SionFormatError` naming the file on a
        damaged or incomplete container (the loader's first finding).
        """
        with self._lock:
            handle = self._containers.get(path)
            if handle is not None and not refresh and self._tokens_unchanged(handle):
                self.stats_gateway.container_reuses += 1
                return handle
            fresh = self._load(path)
            if handle is not None:
                # Reaching a reload with a resident handle means the token
                # mismatched (or refresh was forced): the file mutated, and
                # chunk payload can change without the metablocks changing,
                # so the old generation is retired wholesale.
                self.cache.drop_generation(handle.generation)
                handle.close()
                self.stats_gateway.reseals_detected += 1
            self._containers[path] = fresh
            self.stats_gateway.containers_opened += 1
            return fresh

    def refresh(self, path: str) -> ContainerHandle:
        """Force-reload ``path`` under a new generation (drop cached bytes)."""
        return self.open_container(path, refresh=True)

    def close(self) -> None:
        """Close every container handle and retire all sessions."""
        with self._lock:
            for session in self._sessions.values():
                session.close()
            self._sessions.clear()
            self.stats_gateway.sessions_active = 0
            for handle in self._containers.values():
                self.cache.drop_generation(handle.generation)
                handle.close()
            self._containers.clear()

    def _tokens_unchanged(self, handle: ContainerHandle) -> bool:
        """The cheap per-session-open revalidation probe (stat, no data reads)."""
        try:
            return handle.tokens == tuple(
                self.backend.identity_token(p) for p in handle.plan.paths
            )
        except Exception:  # noqa: BLE001 - a vanished file is "changed"
            return False

    def _load(self, path: str) -> ContainerHandle:
        """Load the whole set once and wrap the loader's handles in caches."""
        generation = next(self._generations)
        load = load_set(self.backend, path).require_intact()
        # The metablocks were read once by the loader, on the backend
        # handles, and never belong in the chunk cache.
        raws = [CachingRawFile(f.raw, self.cache, generation, f.path) for f in load.files]
        tokens = [self.backend.identity_token(f.path) for f in load.files]
        return ContainerHandle(path, generation, ReadPlan.from_set(load), raws, tokens)

    # -- async session API ----------------------------------------------------

    async def open_session(
        self,
        path: str,
        *,
        readers: "int | None" = None,
        reader: "int | None" = None,
        rank: "int | None" = None,
    ) -> int:
        """Open a record-read session; returns its session id.

        Two slice shapes exist:

        * ``readers=m, reader=r`` — the session owns reader ``r``'s
          contiguous slice of an ``m``-way balanced
          :class:`~repro.sion.mapping.ReadPartition` over the writer
          streams (exactly what an SPMD partitioned reader would see);
        * ``rank=g`` — the session owns the single writer stream ``g``.

        Raises :class:`~repro.errors.SionUsageError` when neither or
        both shapes are given, or when the indices are out of range.
        """
        await asyncio.sleep(0)
        if (rank is None) == (readers is None and reader is None):
            raise SionUsageError(
                "pass either rank=g or readers=m with reader=r"
            )
        if rank is None and (readers is None or reader is None):
            raise SionUsageError("readers and reader must be given together")
        handle = self.open_container(path)
        if rank is not None:
            handle.stream(rank)  # the range check, before a session id is taken
            writers: Sequence[int] = (rank,)
        else:
            assert readers is not None and reader is not None
            part = ReadPartition.balanced(handle.ntasks, readers)
            if not 0 <= reader < readers:
                raise SionUsageError(
                    f"reader {reader} out of range ({readers} readers)"
                )
            writers = part.writers_of(reader)
        with self._lock:
            sid = next(self._session_ids)
            session = GatewaySession(sid, handle, writers)
            self._sessions[sid] = session
            gs = self.stats_gateway
            gs.sessions_opened += 1
            gs.sessions_active += 1
            gs.sessions_peak = max(gs.sessions_peak, gs.sessions_active)
        return sid

    async def read(self, session_id: int, n: int) -> bytes:
        """Read up to ``n`` record bytes from session ``session_id``."""
        await asyncio.sleep(0)
        out = self._session(session_id).fread(n)
        self._count_read(len(out))
        return out

    async def read_all(self, session_id: int) -> bytes:
        """Drain everything that remains of the session's slice."""
        await asyncio.sleep(0)
        out = self._session(session_id).read_all()
        self._count_read(len(out))
        return out

    async def session_eof(self, session_id: int) -> bool:
        """True once the session's slice is exhausted."""
        await asyncio.sleep(0)
        return self._session(session_id).feof()

    async def read_task(self, path: str, rank: int) -> bytes:
        """Whole logical stream of writer ``rank`` (stateless record read)."""
        await asyncio.sleep(0)
        out = self.open_container(path).read_task(rank)
        self._count_read(len(out))
        return out

    async def read_range(self, path: str, rank: int, offset: int, n: int) -> bytes:
        """Stateless ranged read inside writer ``rank``'s logical stream."""
        await asyncio.sleep(0)
        out = self.open_container(path).read_range(rank, offset, n)
        self._count_read(len(out))
        return out

    async def close_session(self, session_id: int) -> None:
        """Retire one session (idempotent per id; unknown ids raise)."""
        await asyncio.sleep(0)
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                raise SionUsageError(f"unknown session {session_id}")
            session.close()
            self.stats_gateway.sessions_active -= 1

    async def stats(self) -> dict[str, Any]:
        """The stats endpoint: gateway counters plus cache telemetry."""
        await asyncio.sleep(0)
        return self.snapshot()

    # -- sync introspection ---------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Synchronous form of :meth:`stats` (tools, tests, bench)."""
        with self._lock:
            gs = self.stats_gateway
            return {
                "containers": {
                    p: {
                        "generation": h.generation,
                        "ntasks": h.ntasks,
                        "nfiles": h.nfiles,
                        "compress": h.plan.compress,
                        "shadow": h.plan.shadow,
                    }
                    for p, h in self._containers.items()
                },
                "containers_opened": gs.containers_opened,
                "container_reuses": gs.container_reuses,
                "reseals_detected": gs.reseals_detected,
                "sessions_opened": gs.sessions_opened,
                "sessions_active": gs.sessions_active,
                "sessions_peak": gs.sessions_peak,
                "reads": gs.reads,
                "bytes_served": gs.bytes_served,
                "cache": self.cache.snapshot(),
            }

    def _session(self, session_id: int) -> GatewaySession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SionUsageError(f"unknown session {session_id}")
        return session

    def _count_read(self, nbytes: int) -> None:
        with self._lock:
            self.stats_gateway.reads += 1
            self.stats_gateway.bytes_served += nbytes
