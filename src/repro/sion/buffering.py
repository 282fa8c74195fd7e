"""Write coalescing for fine-grained output.

Applications that emit many tiny records (trace events, log lines, particle
attributes) would otherwise hit the storage layer once per record.  The
:class:`CoalescingWriter` batches small ``fwrite``s into an in-memory
buffer and flushes it in chunk-sized pieces — the classic buffered-stdio
optimization, applied per task-local stream.

It is a pure wrapper: bytes on disk are identical with and without it
(property-tested), only the number of backend write calls changes.
Records are copied once, into the staging buffer; a flush that is one
span of one caller ``bytes`` (the common case of records sliced from one
payload) goes down as a view of that span, so the store shares it instead
of copying the flush a second time.
"""

from __future__ import annotations

from repro.buffers import BufferLike, as_view, offset_in
from repro.errors import SionUsageError


class CoalescingWriter:
    """Batch small writes into ``buffer_size``-byte flushes.

    Copy discipline: small records are copied **once**, into the staging
    buffer (that copy *is* the coalescing, and the cheap per-record path).
    A flush whose staged bytes are one span of one caller ``bytes`` hands
    the stream a view of that span, which the store and the journal keep
    as it is (the keep rule of :mod:`repro.buffers`); any other flush
    hands it a ``memoryview`` of the staging buffer, which the store
    copies once.  Large writes arriving on an empty buffer bypass the
    staging entirely and the caller's view flows through untouched.  A
    record that fills a non-empty buffer tops the staged head up to
    ``buffer_size`` and flushes it; its remaining whole ``buffer_size``
    pieces go down as views of the record, and only its tail is staged.

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
        # Where the staged run would start in a caller ``bytes``: a view of
        # the first record staged into the empty buffer, or of the tail a
        # flush left of the record that it split; None for other exporters.
        self._start: memoryview | None = None
        self._closed = False
        self.bytes_written = 0
        self.flushes = 0

    def write(self, data: BufferLike) -> int:
        """Queue ``data``; flushes automatically at the buffer bound."""
        self._check_open()
        view = as_view(data)
        n = view.nbytes
        self.bytes_written += n
        size = self.buffer_size
        buf = self._buf
        shared = type(view.obj) is bytes
        if not buf:
            if n >= size:
                # Large writes bypass the staging buffer: zero-copy passthrough.
                self.stream.fwrite(view)
                self.flushes += 1
                return n
            # A slice, not ``view``: the caller may release its own view.
            self._start = view[:] if shared else None
        room = size - len(buf)
        if n < room:
            buf += view
            return n
        buf += view[:room]
        self._flush_prefix(size)
        done = room
        while n - done >= size:
            self.stream.fwrite(view[done : done + size])
            self.flushes += 1
            done += size
        # What the flushes leave is the tail of this record.
        buf += view[done:]
        self._start = view[done:] if shared and done < n else None
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
            self._start = None

    def _flush_prefix(self, size: int) -> None:
        """Hand the stream the buffer head, then drop it.

        The head goes down as the caller's span when :meth:`_span` finds
        one.  Otherwise it goes as a view of the staging buffer, which
        must be released before the ``del`` — a ``bytearray`` with
        exported buffers refuses to resize.  Downstream consumes the bytes
        synchronously (the vectored backend call returns only after the
        store took its copy), so releasing here is safe.
        """
        span = self._span(size)
        if span is not None:
            self.stream.fwrite(span)
        else:
            view = memoryview(self._buf)
            head = view[:size]
            try:
                self.stream.fwrite(head)
            finally:
                head.release()
                view.release()
        del self._buf[:size]
        self.flushes += 1

    def _span(self, size: int) -> memoryview | None:
        """The view of a caller ``bytes`` equal to the first ``size`` staged
        bytes, or None.

        The candidate starts where the staged run started; one ``memcmp``
        of the staged bytes against it confirms it, so correctness never
        rests on address arithmetic, and a later record from another
        object or another place only costs the comparison.
        """
        start = self._start
        if start is None:
            return None
        lo = offset_in(start)
        span = memoryview(start.obj)[lo : lo + size]
        if span.nbytes == size and self._buf.startswith(span):
            return span
        return None

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
