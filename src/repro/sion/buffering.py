"""Write coalescing for fine-grained output.

Applications that emit many tiny records (trace events, log lines, particle
attributes) would otherwise hit the storage layer once per record.  The
:class:`CoalescingWriter` batches small ``fwrite``s into an in-memory
buffer and flushes it in chunk-sized pieces — the classic buffered-stdio
optimization, applied per task-local stream.

It is a pure wrapper: bytes on disk are identical with and without it
(property-tested), only the number of backend write calls changes.
"""

from __future__ import annotations

from repro.buffers import BufferLike, as_view
from repro.errors import SionUsageError


class CoalescingWriter:
    """Batch small writes into ``buffer_size``-byte flushes.

    Copy discipline: small records are copied **once**, into the staging
    buffer (that copy *is* the coalescing); each flush then hands the
    stream a ``memoryview`` of the buffer — no flush-time copy.  Large
    writes arriving on an empty buffer bypass the staging entirely and
    the caller's view flows through untouched.

    >>> w = CoalescingWriter(handle, buffer_size=64 * 1024)  # doctest: +SKIP
    ... for record in records:
    ...     w.write(record)
    ... w.close()        # flushes the tail; the handle stays open
    """

    def __init__(self, stream, buffer_size: int = 64 * 1024) -> None:
        if buffer_size < 1:
            raise SionUsageError(f"buffer_size must be positive: {buffer_size}")
        self.stream = stream
        self.buffer_size = buffer_size
        self._buf = bytearray()
        self._closed = False
        self.bytes_written = 0
        self.flushes = 0

    def write(self, data: BufferLike) -> int:
        """Queue ``data``; flushes automatically at the buffer bound."""
        self._check_open()
        view = as_view(data)
        n = view.nbytes
        self.bytes_written += n
        if n >= self.buffer_size and not self._buf:
            # Large writes bypass the staging buffer: zero-copy passthrough.
            self.stream.fwrite(view)
            self.flushes += 1
            return n
        self._buf += view
        while len(self._buf) >= self.buffer_size:
            self._flush_prefix(self.buffer_size)
        return n

    def fwrite(self, data: BufferLike) -> int:
        """Alias for :meth:`write`, matching the SION stream protocol so
        the coalescer can sit under :class:`~repro.sion.text.TextWriter`
        or any other layer written against ``fwrite``."""
        return self.write(data)

    def flush(self) -> None:
        """Push any buffered tail down to the stream."""
        self._check_open()
        if self._buf:
            self._flush_prefix(len(self._buf))

    def _flush_prefix(self, size: int) -> None:
        """Hand the stream a view of the buffer head, then drop it.

        The view must be released before the ``del`` — a ``bytearray``
        with exported buffers refuses to resize.  Downstream consumes the
        bytes synchronously (the vectored backend call returns only after
        the store took its copy), so releasing here is safe.
        """
        view = memoryview(self._buf)
        head = view[:size]
        try:
            self.stream.fwrite(head)
        finally:
            head.release()
            view.release()
        del self._buf[:size]
        self.flushes += 1

    @property
    def pending(self) -> int:
        """Bytes queued but not yet flushed."""
        return len(self._buf)

    def close(self) -> None:
        """Flush and detach (does *not* close the underlying handle)."""
        if not self._closed:
            self.flush()
            self._closed = True

    def __enter__(self) -> "CoalescingWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SionUsageError("coalescing writer is closed")


class CountingStream:
    """Test/diagnostic wrapper counting fwrite calls and bytes."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.calls = 0
        self.bytes = 0

    def fwrite(self, data: bytes) -> int:
        self.calls += 1
        self.bytes += len(data)
        return self.stream.fwrite(data)
