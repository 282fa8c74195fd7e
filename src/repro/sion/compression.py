"""Transparent per-task zlib compression (paper §6 roadmap).

The paper's Scalasca case study had to keep compression in the application
because SIONlib lacked it; §6 proposes integrating zlib transparently.
This module does exactly that: each task's logical stream is deflate-
compressed on the way into its chunks and inflated on the way out, with
sync-flush points after every ``fwrite`` so readers can decompress
incrementally without seeing the whole stream.
"""

from __future__ import annotations

import zlib

from repro.buffers import BufferLike, as_view
from repro.errors import SionUsageError


class ZlibWriter:
    """Streaming compressor for one task's writes.

    Accepts any buffer-protocol payload and feeds the view straight into
    zlib — the deflate output is the first (and only) new buffer the
    write path materializes on this route.
    """

    def __init__(self, level: int = 6) -> None:
        if not 0 <= level <= 9:
            raise SionUsageError(f"zlib level must be 0..9, got {level}")
        self._c = zlib.compressobj(level)
        self.raw_in = 0
        self.raw_out = 0
        self._finished = False

    def compress(self, data: BufferLike) -> bytes:
        """Compress one write; the result is immediately decodable."""
        if self._finished:
            raise SionUsageError("compressor already finalized")
        view = as_view(data)
        out = self._c.compress(view) + self._c.flush(zlib.Z_SYNC_FLUSH)
        self.raw_in += view.nbytes
        self.raw_out += len(out)
        return out

    def finish(self) -> bytes:
        """Emit the stream trailer; the writer is unusable afterwards."""
        if self._finished:
            return b""
        self._finished = True
        out = self._c.flush(zlib.Z_FINISH)
        self.raw_out += len(out)
        return out


class ZlibReader:
    """Streaming decompressor for one task's reads."""

    def __init__(self) -> None:
        self._d = zlib.decompressobj()
        self._buf = bytearray()
        self._source_done = False

    def feed(self, compressed: bytes) -> None:
        """Push compressed bytes from the chunk stream."""
        if compressed:
            self._buf.extend(self._d.decompress(compressed))

    def source_exhausted(self) -> None:
        """Signal that the chunk stream has no more bytes."""
        if not self._source_done:
            self._source_done = True
            self._buf.extend(self._d.flush())

    def available(self) -> int:
        """Decompressed bytes ready to be taken."""
        return len(self._buf)

    def take(self, n: int) -> bytes:
        """Pop up to ``n`` decompressed bytes."""
        if n < 0:
            raise SionUsageError("n must be non-negative")
        out = bytes(self._buf[:n])
        del self._buf[: len(out)]
        return out

    @property
    def exhausted(self) -> bool:
        """True when no more decompressed bytes can ever appear."""
        return self._source_done and not self._buf
