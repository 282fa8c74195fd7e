"""Chunk-aware task streams: the write and read cursors of the SION layer.

A :class:`WriteStream` is the write API itself (Listing 1): one task's
sequential writer over the chunks that belong to it inside a physical
multifile.  Every write handle is one of these over a different *sink* —
direct, buddy, collective, hybrid and serial writers alike — so the
write semantics exist once:

* ``ensure_free_space(n)`` — advance to a fresh chunk if the current one
  cannot take ``n`` more bytes; requires **no communication** because
  every chunk address is computable locally.
* ``write(data)`` — ANSI-``fwrite``-style write that must fit the current
  chunk (the caller guards with ``ensure_free_space``).
* ``fwrite(data)`` — SIONlib's own write, splitting data across chunk
  boundaries internally (and deflating it first with transparent
  compression).

A :class:`TaskStream` is the read primitive: the chunk arithmetic of one
task's recorded chunks (a position, a request plan, a seek), driven by
the per-block byte counts of metablock 2; it issues no read call.  A
:class:`PartitionStream` is the read API (Listing 2): a cursor over a
slice of task streams (a single stream is a slice of length 1) that owns
the one chunk data call and its short-read rule, transparent
decompression, the closed/compression usage checks and the physical
handles it was given.  Every read surface — ``paropen(..., "r")`` in all
four plans, ``open_rank``, the serial global view and the read gateway's
sessions and ranged reads — is one of these.

Byte movement is **zero-copy and vectored**: every write accepts any
buffer-protocol payload and forwards ``memoryview`` slices of it; every
call uses *positioned* backend I/O (chunk addresses are computable
locally, and the store has no file pointer), and the
chunk-spanning ``fwrite``/``fread`` compute their complete fragment list
up front and hand it to the backend in a **single**
``scatter_write``/``gather_read`` call instead of one call per fragment.

With the *shadow* extension (paper §6 roadmap), the first 32 bytes of every
chunk hold a :class:`~repro.sion.format.ShadowHeader` so metablock 2 can be
reconstructed after a crash; usable chunk capacity shrinks accordingly.
A header never reaches the store in the same call as the bytes it
counts: the headers of blocks completed inside an ``fwrite`` follow its
data in a second call, so an interrupted data call cannot leave a header
vouching for bytes that never landed.
"""

from __future__ import annotations

from typing import NoReturn, Sequence

from repro.backends.base import RawFile
from repro.buffers import BufferLike, as_view, concat_views
from repro.errors import SionChunkOverflowError, SionUsageError
from repro.sion.compression import ZlibReader, ZlibWriter
from repro.sion.constants import SHADOW_HEADER_SIZE
from repro.sion.format import ShadowHeader
from repro.sion.layout import ChunkLayout

#: Raw chunk-stream bytes fed to a decompressor per refill of a piecewise
#: compressed read (``read_all`` takes a stream's whole remainder at once).
_ZPIECE = 64 * 1024

#: The two halves of the handle API, by the mode they belong to.  A handle
#: serves one mode; the other mode's names are a usage error on it, not an
#: ``AttributeError`` (see :func:`refuse_other_mode`).
_MODE_API = {
    "r": ("feof", "read", "fread", "read_all", "read_task", "bytes_avail_in_chunk"),
    "w": ("fwrite", "write", "ensure_free_space", "bytes_left_in_chunk",
          "flush_shadow", "flush_collective"),
}


def refuse_other_mode(handle: object, name: str, mode: str) -> NoReturn:
    """``__getattr__`` body of a handle open in ``mode`` only."""
    if name in _MODE_API["w" if mode == "r" else "r"]:
        raise SionUsageError(f"{name} is unavailable: file is open {mode!r}")
    raise AttributeError(f"{type(handle).__name__!r} has no attribute {name!r}")


class WriteStream:
    """The write cursor: one task's chunks in one physical file.

    The cursor calls only ``scatter_write`` on its *sink*, one fragment
    list per write, chunk-local writes and shadow headers included:
    a :class:`~repro.sion.openspec.ReplayGuardedFile` in direct mode, a
    :class:`~repro.sion.collective.FragmentRecorder` in collective mode,
    the physical file itself for serial creation.  Shadow headers go to
    the ``headers`` sink (the same one unless given), always in a call
    after the data they count.  Chunk ``b``'s data
    starts at ``_base + b * _stride`` (precomputed: a bulk-engine replay
    rebuilds every handle).  With ``compress=True`` each ``fwrite`` is
    deflated into the task's zlib stream, and the chunk-local calls are
    usage errors: compressed bytes have no record boundaries.  A forward
    :meth:`seek_logical` moves only the position (``cur_block``, ``pos``),
    so skipped bytes count as written once a write lands past them.
    """

    __slots__ = (
        "_raw", "ltask", "shadow", "compress", "capacity", "cur_block", "pos",
        "_end", "_base", "_stride", "_finished", "_zw", "_closed", "_hraw",
    )

    def __init__(
        self,
        raw,
        layout: ChunkLayout,
        ltask: int,
        *,
        shadow: bool = False,
        compress: bool = False,
        headers=None,
    ) -> None:
        ntasks = len(layout.aligned_sizes)
        if not 0 <= ltask < ntasks:
            raise SionUsageError(f"task {ltask} out of range for {ntasks} local tasks")
        data_offset = SHADOW_HEADER_SIZE if shadow else 0
        self.capacity = layout.aligned_sizes[ltask] - data_offset
        if self.capacity <= 0:
            raise SionUsageError(
                "chunk too small to hold the shadow header; "
                "increase chunksize or fsblksize"
            )
        self._base = layout.start_of_data + layout.chunk_prefix[ltask] + data_offset
        self._stride = layout.block_capacity
        self._raw = raw
        self._hraw = raw if headers is None else headers
        self.ltask = ltask
        self.shadow = shadow
        self.compress = compress
        self._zw = ZlibWriter() if compress else None
        self.cur_block = 0
        self.pos = 0  # the cursor, in data bytes into the current chunk
        self._end = 0  # how far writes reached in the current chunk
        self._finished: list[int] = []  # bytes written per completed block
        self._closed = False

    # -- cursor state --------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`finalize` has run."""
        return self._closed

    def tell_logical(self) -> int:
        """Raw chunk-stream bytes produced so far by this task."""
        return sum(self._finished) + self.pos

    def get_current_location(self) -> tuple[int, int]:
        """``sion_get_current_location``: ``(block, pos_in_chunk)``, raw bytes."""
        return self.cur_block, self.pos

    def bytes_left_in_chunk(self) -> int:
        """Writable bytes remaining in the current chunk."""
        self._plain_only("bytes_left_in_chunk")
        return self.capacity - self.pos

    # -- write API (Listing 1) -------------------------------------------------

    def ensure_free_space(self, nbytes: int) -> bool:
        """Guarantee ``nbytes`` fit contiguously; may advance to a new chunk.

        Returns True if a new chunk (block) was allocated.  Raises
        :class:`SionUsageError` if ``nbytes`` can never fit a single chunk —
        use :meth:`fwrite` for such writes.
        """
        self._plain_only("ensure_free_space")
        if nbytes < 0:
            raise SionUsageError("nbytes must be non-negative")
        if nbytes > self.capacity:
            raise SionUsageError(
                f"request of {nbytes} bytes exceeds the chunk capacity "
                f"({self.capacity}); use fwrite() to span chunks"
            )
        if self.pos + nbytes > self.capacity:
            self._next_block()
            return True
        return False

    def write(self, data: BufferLike) -> int:
        """ANSI-``fwrite`` equivalent: one positioned write inside the chunk."""
        if self._closed or self._zw is not None:
            self._plain_only("write")
        view = as_view(data)
        n = view.nbytes
        if self.pos + n > self.capacity:
            raise SionChunkOverflowError(
                f"write of {n} bytes overflows chunk (pos={self.pos}, "
                f"capacity={self.capacity}); call ensure_free_space first"
            )
        if n:
            self._raw.scatter_write(
                [(self._base + self.cur_block * self._stride + self.pos, view)]
            )
        self.pos = self._end = self.pos + n
        return n

    def fwrite(self, data: BufferLike) -> int:
        """SIONlib write: splits across chunks; returns *logical* bytes.

        The payload view is forwarded without copies; with compression the
        deflate output is the only buffer materialized on the way down.
        """
        if self._closed:
            raise SionUsageError("multifile is closed")
        view = as_view(data)
        if self._zw is None:
            return self._put(view)
        self._put(as_view(self._zw.compress(view)))
        return view.nbytes

    def seek_logical(self, block: int, pos: int) -> None:
        """Move forward to ``pos`` in chunk ``block``; never backwards."""
        self._plain_only("seek_logical")
        if block < 0 or pos < 0:
            raise SionUsageError("block and pos must be non-negative")
        if pos > self.capacity:
            raise SionUsageError(f"pos {pos} beyond chunk capacity {self.capacity}")
        if (block, pos) < (self.cur_block, self.pos):
            raise SionUsageError(
                f"cannot seek back to block {block}, pos {pos}: the cursor of "
                f"task {self.ltask} is at block {self.cur_block}, pos {self.pos}"
            )
        while self.cur_block < block:
            self._next_block()
        self.pos = pos

    def flush_shadow(self) -> None:
        """Checkpoint recovery metadata for the current block (paper §6)."""
        if self._closed:
            raise SionUsageError("multifile is closed")
        if self.shadow:
            self._hraw.scatter_write([self._shadow_fragment(self.cur_block, self._end)])

    def finalize(self) -> list[int]:
        """End the stream; returns bytes written per block.

        Writes the zlib trailer (with compression) and the current block's
        shadow header (if enabled).  Trailing empty blocks are trimmed; a
        task that wrote nothing reports a single zero-byte block.
        """
        if self._closed:
            raise SionUsageError("multifile is closed")
        if self._zw is not None:
            self._put(as_view(self._zw.finish()))
        if self.shadow:
            self._hraw.scatter_write([self._shadow_fragment(self.cur_block, self._end)])
        sizes = [*self._finished, self._end]
        while len(sizes) > 1 and sizes[-1] == 0:
            sizes.pop()
        self._closed = True
        return sizes

    def __getattr__(self, name: str) -> NoReturn:
        refuse_other_mode(self, name, "w")

    # -- internals ----------------------------------------------------------

    def _put(self, view: memoryview) -> int:
        """Chunk-spanning write: one ``scatter_write`` for all data fragments.

        The shadow headers of blocks completed along the way follow in one
        more call, once the data is in.  Cursor state commits only after
        the data call returns, so a failed write never leaves block
        accounting claiming bytes that are not on disk.
        """
        total = view.nbytes
        if total == 0:
            return 0
        fragments: list[tuple[int, BufferLike]] = []
        headers: list[tuple[int, bytes]] = []
        completed: list[int] = []
        blk, pos, end = self.cur_block, self.pos, self._end
        done = 0
        while done < total:
            avail = self.capacity - pos
            if avail == 0:
                if self.shadow:
                    headers.append(self._shadow_fragment(blk, end))
                completed.append(end)
                blk += 1
                pos = 0
                avail = self.capacity
            take = min(avail, total - done)
            fragments.append(
                (self._base + blk * self._stride + pos, view[done : done + take])
            )
            pos = end = pos + take
            done += take
        self._raw.scatter_write(fragments)
        self._finished.extend(completed)
        self.cur_block, self.pos, self._end = blk, pos, pos
        if headers:
            self._hraw.scatter_write(headers)
        return total

    def _next_block(self) -> None:
        """Complete the current block and move the cursor to the next one."""
        if self.shadow:
            self._hraw.scatter_write([self._shadow_fragment(self.cur_block, self._end)])
        self._finished.append(self._end)
        self.cur_block += 1
        self.pos = self._end = 0

    def _shadow_fragment(self, block: int, written: int) -> tuple[int, bytes]:
        hdr = ShadowHeader(ltask=self.ltask, block=block, written=written)
        return self._base - SHADOW_HEADER_SIZE + block * self._stride, hdr.encode()

    def _plain_only(self, op: str) -> None:
        if self._closed:
            raise SionUsageError("multifile is closed")
        if self._zw is not None:
            raise SionUsageError(
                f"{op} is unavailable with transparent compression; "
                "use fwrite, which manages chunk boundaries internally"
            )


class TaskStream:
    """Read primitive: one task's recorded chunks in one physical file.

    Only the chunk arithmetic: a position (``cur_block``, ``pos``), the
    request plan for the next ``n`` bytes and the seek.  It issues no
    read call; :class:`PartitionStream` composes these and is the only
    code that fetches chunk bytes.  ``blocksizes`` is the task's row of
    metablock 2 (:meth:`~repro.sion.format.Metablock2.row`, a small
    column of its own), never mutated.  Chunk ``b``'s data starts at
    ``_base + b * _stride``.
    """

    __slots__ = ("raw", "cur_block", "pos", "_base", "_stride", "_blocksizes")

    def __init__(
        self,
        raw: RawFile,
        layout: ChunkLayout,
        ltask: int,
        blocksizes: Sequence[int],
        shadow: bool = False,
    ) -> None:
        ntasks = len(layout.aligned_sizes)
        if not 0 <= ltask < ntasks:
            raise SionUsageError(f"task {ltask} out of range for {ntasks} local tasks")
        data_offset = SHADOW_HEADER_SIZE if shadow else 0
        if layout.aligned_sizes[ltask] <= data_offset:
            raise SionUsageError(
                "chunk too small to hold the shadow header; "
                "increase chunksize or fsblksize"
            )
        self.raw = raw
        self._base = layout.start_of_data + layout.chunk_prefix[ltask] + data_offset
        self._stride = layout.block_capacity
        self.cur_block = 0
        self.pos = 0  # data bytes into the current chunk
        self._blocksizes = blocksizes
        self._at_end()

    def tell_logical(self) -> int:
        """Bytes consumed so far across all blocks."""
        return sum(self._blocksizes[: self.cur_block]) + self.pos

    def _at_end(self) -> bool:
        """Step past exhausted blocks; True once every recorded byte is read."""
        blocks = self._blocksizes
        while self.cur_block < len(blocks) and self.pos >= blocks[self.cur_block]:
            self.cur_block += 1
            self.pos = 0
        return self.cur_block >= len(blocks)

    def _plan_read(self, n: int) -> tuple[list[tuple[int, int]], int, int]:
        """Request list for up to ``n`` logical bytes from the cursor.

        Returns ``(requests, end_block, end_pos)`` without touching the
        stream state — the gather plan is pure local arithmetic.
        """
        blocks = self._blocksizes
        requests: list[tuple[int, int]] = []
        blk, pos = self.cur_block, self.pos
        remaining = n
        while remaining > 0:
            while blk < len(blocks) and pos >= blocks[blk]:
                blk += 1
                pos = 0
            if blk >= len(blocks):
                break
            take = min(remaining, blocks[blk] - pos)
            requests.append((self._base + blk * self._stride + pos, take))
            pos += take
            remaining -= take
        return requests, blk, pos

    def seek_logical(self, block: int, pos: int) -> None:
        """Reposition to ``pos`` within the data of chunk ``block``."""
        blocks = self._blocksizes
        if block < 0 or pos < 0:
            raise SionUsageError("block and pos must be non-negative")
        if block >= len(blocks):
            raise SionUsageError(f"block {block} out of range ({len(blocks)} blocks)")
        if pos > blocks[block]:
            raise SionUsageError(
                f"pos {pos} beyond data in block {block} ({blocks[block]} bytes)"
            )
        self.cur_block = block
        self.pos = pos


class PartitionStream:
    """The read cursor: a slice of task streams read as one logical file.

    Every read surface is one of these — a matched ``paropen`` rank, a
    partitioned reader, ``open_rank``, the serial global view, a gateway
    session — and a single stream is simply a slice of length 1.  The
    slice's logical stream is the concatenation of its task streams (in
    writer-rank order):

    * :meth:`fread` collects the *complete* fragment plan across the
      streams, merges the requests of streams sharing a physical handle
      and issues **one** vectored ``gather_read`` per distinct handle — so
      draining a whole slice costs one physical call per touched file,
      not one per stream;
    * with ``compress=True`` every task stream is an independent zlib
      stream: ``fread``/``read_all``/``feof`` answer in decompressed
      bytes, and the chunk-local ``read``/``bytes_avail_in_chunk`` are
      usage errors (compressed bytes have no record boundaries);
    * a short read (truncated or damaged file) consumes only the bytes
      that arrived — later streams stay untouched and ``feof()`` stays
      False, so tooling can tell the shortfall from a clean end.

    Every read — chunk-local ``read``, ``fread``, ``read_all`` and the
    compressed refill — is one :meth:`_gather`, the only code that issues
    a chunk data call and applies the short-read rule.  ``raws`` are the
    physical handles the cursor owns: :meth:`close` closes them.

    Example::

        cursor = PartitionStream([stream_a, stream_b])
        while not cursor.feof():
            consume(cursor.fread(1 << 16))
    """

    def __init__(
        self,
        streams: "list[TaskStream]",
        *,
        compress: bool = False,
        raws: Sequence[RawFile] = (),
    ) -> None:
        self._streams = streams
        self._idx = 0
        self.compress = compress
        self._zrs = [ZlibReader() for _ in streams] if compress else None
        self._raws = list(raws)
        self._closed = False

    # -- cursor state --------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def _advance(self) -> None:
        streams = self._streams
        while self._idx < len(streams) and streams[self._idx]._at_end():
            self._idx += 1

    def _current(self) -> "TaskStream | None":
        self._advance()
        if self._idx >= len(self._streams):
            return None
        return self._streams[self._idx]

    def feof(self) -> bool:
        """True once every stream of the slice is exhausted."""
        self._check_open()
        if self._zrs is not None:
            return self._inflated(1) is None
        self._advance()
        return self._idx >= len(self._streams)

    def tell_logical(self) -> int:
        """Raw chunk-stream bytes consumed so far across the whole slice."""
        self._check_open()
        return sum(s.tell_logical() for s in self._streams)

    def get_current_location(self) -> tuple[int, int]:
        """``sion_get_current_location``: ``(block, pos_in_chunk)``.

        Of the stream under the cursor, in raw chunk-stream bytes
        (compressed bytes when transparent compression is active).
        """
        self._check_open()
        if not self._streams:
            return 0, 0
        s = self._streams[min(self._idx, len(self._streams) - 1)]
        return s.cur_block, s.pos

    # -- chunk-local operations (current stream) -----------------------------

    def bytes_avail_in_chunk(self) -> int:
        """Unread data bytes in the current stream's current chunk."""
        self._check_raw("bytes_avail_in_chunk")
        s = self._current()
        return s._blocksizes[s.cur_block] - s.pos if s is not None else 0

    def read(self, n: int) -> bytes:
        """Read within the current chunk of the current stream."""
        self._check_raw("read")
        if n < 0:
            raise SionUsageError("read size must be non-negative")
        return concat_views(self._gather(min(n, self.bytes_avail_in_chunk())))

    # -- slice-spanning operations -------------------------------------------

    def fread(self, n: int) -> bytes:
        """Read up to ``n`` logical bytes, crossing chunk and stream boundaries."""
        if self._closed:
            raise SionUsageError("read handle is closed")
        if n < 0:
            raise SionUsageError("read size must be non-negative")
        if self._zrs is None:
            pieces = self._gather(n)
            self._advance()
            return concat_views(pieces)
        parts: list[bytes] = []
        while n > 0:
            zr = self._inflated(n)
            piece = zr.take(n) if zr is not None else b""
            if not piece:
                break  # end of slice, or the store came back short
            parts.append(piece)
            n -= len(piece)
        return b"".join(parts)

    def read_all(self) -> bytes:
        """Everything that remains of the slice, in one vectored pass."""
        if self._closed:
            raise SionUsageError("read handle is closed")
        if self._zrs is None:
            remaining = 0
            for s in self._streams[self._idx :]:
                remaining += sum(s._blocksizes[s.cur_block :]) - s.pos
            return self.fread(max(remaining, 0))
        parts = []
        while (zr := self._inflated(None)) is not None:
            piece = zr.take(zr.available())
            if not piece:
                break  # the store came back short
            parts.append(piece)
        return b"".join(parts)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the physical handles this cursor owns (idempotent)."""
        if not self._closed:
            self._closed = True
            for raw in self._raws:
                raw.close()

    def __enter__(self) -> "PartitionStream":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __getattr__(self, name: str) -> NoReturn:
        refuse_other_mode(self, name, "r")

    # -- internals ------------------------------------------------------------

    def _gather(self, n: int, stop: "int | None" = None) -> list[bytes]:
        """Fetch up to ``n`` raw bytes from the cursor on; advance past them.

        The plan is pure local arithmetic (every stream's chunk addresses
        are computable without communication); the physical fetch is one
        ``gather_read`` per distinct handle.  ``stop`` bounds the streams
        the plan may enter (the compressed refill reads one stream).
        """
        plans: list[tuple[TaskStream, list, int, int, int]] = []
        remaining = n
        i = self._idx
        stop = len(self._streams) if stop is None else stop
        while remaining > 0 and i < stop:
            s = self._streams[i]
            requests, blk, pos = s._plan_read(remaining)
            expected = sum(size for _, size in requests)
            if expected:
                plans.append((s, requests, blk, pos, expected))
                remaining -= expected
            i += 1
        # Merge per-handle: one vectored call per distinct raw handle,
        # remembering each plan's slice of its handle's piece list.
        buckets: dict[int, tuple[RawFile, list]] = {}
        placements: list[tuple[int, int, int]] = []  # (raw id, start, count)
        for s, requests, _, _, _ in plans:
            key = id(s.raw)
            if key not in buckets:
                buckets[key] = (s.raw, [])
            reqs = buckets[key][1]
            placements.append((key, len(reqs), len(requests)))
            reqs.extend(requests)
        pieces_by_bucket = {
            key: raw.gather_read(reqs) for key, (raw, reqs) in buckets.items()
        }
        out: list[bytes] = []
        for (s, requests, blk, pos, expected), (key, start, count) in zip(
            plans, placements
        ):
            pieces = pieces_by_bucket[key][start : start + count]
            got = sum(len(p) for p in pieces)
            out.extend(pieces)
            if got == expected:
                s.cur_block, s.pos = blk, pos
            else:
                _, s.cur_block, s.pos = s._plan_read(got)
                break  # shortfall: later streams were not consumed
        return out

    def _inflated(self, want: "int | None") -> "ZlibReader | None":
        """The current stream's decompressor, refilled toward ``want`` bytes.

        Refills in :data:`_ZPIECE` raw pieces; ``want=None`` takes the
        stream's whole remainder in one read.  Streams whose zlib stream
        is exhausted are passed over; ``None`` means the slice is done.
        A refill that comes back empty before the stream's recorded end
        (a short store) stops, leaving the decompressor not exhausted.
        """
        assert self._zrs is not None
        while self._idx < len(self._streams):
            zr, s = self._zrs[self._idx], self._streams[self._idx]
            while (want is None or zr.available() < want) and not s._at_end():
                n = _ZPIECE if want is not None else sum(s._blocksizes[s.cur_block :]) - s.pos
                piece = concat_views(self._gather(n, stop=self._idx + 1))
                if not piece:
                    break
                zr.feed(piece)
            if s._at_end():
                zr.source_exhausted()
            if not zr.exhausted:
                return zr
            self._idx += 1
        return None

    def _check_open(self) -> None:
        if self._closed:
            raise SionUsageError("read handle is closed")

    def _check_raw(self, op: str) -> None:
        self._check_open()
        if self.compress:
            raise SionUsageError(
                f"{op} is unavailable with transparent compression; "
                "use fread/read_all, which manage boundaries internally"
            )
