"""Read-through caching adapter over any backend file handle.

:class:`CachingRawFile` wraps a backend :class:`~repro.backends.base.RawFile`
and serves positioned and vectored reads block-granularly through a
shared :class:`~repro.fs.cache.ChunkCache` — the real half of the
paper's client-side caching story (Fig. 5b): a warm working set never
reaches the store.  It is a read-only source, not a ``RawFile``: the
read gateway in :mod:`repro.serve` uses it to serve *sealed* containers,
whose metablocks it decodes on the backend handle before wrapping it.
"""

from __future__ import annotations

from typing import Sequence

from repro.backends.base import RawFile
from repro.fs.cache import ChunkCache


class CachingRawFile:
    """Read-through cache wrapper around a backend file handle.

    ``gather_read`` requests (and ``pread``, one request) are split at
    ``cache.block_size`` boundaries; resident blocks are served from the shared
    :class:`ChunkCache` and the missing ones are fetched from the wrapped
    handle in **one** vectored ``gather_read`` per call, then inserted.

    The wrapper serves reads only — the gateway serves *sealed*
    containers.  A short block (EOF) is cached like any other content:
    the file is immutable for the lifetime of its generation tag, so EOF
    is stable too.  A block wholly past EOF is not cached: it holds no
    bytes for the byte budget to bound, so a reader probing past EOF
    would otherwise grow the table without limit.
    """

    def __init__(self, inner: RawFile, cache: ChunkCache, generation: object, path: str) -> None:
        """Wrap ``inner``; cache entries are keyed on ``generation``/``path``."""
        self._inner = inner
        self._cache = cache
        self._gen = generation
        self._path = path
        self._bs = cache.block_size

    def close(self) -> None:
        """Close the wrapped handle (cached blocks stay resident)."""
        self._inner.close()

    #: A one-request :meth:`gather_read`, the same helper a ``RawFile`` has.
    pread = RawFile.pread

    def gather_read(self, requests: Sequence["tuple[int, int]"]) -> list[bytes]:
        """Vectored read: resident blocks hit, misses fetched in one call.

        The complete miss list across all requests goes to the wrapped
        handle as a single ``gather_read`` — a cold cache costs exactly
        one backend call per vectored read, a warm one costs zero.
        """
        bs = self._bs
        blocks: dict[int, "bytes | None"] = {}
        for off, size in requests:
            if size <= 0:
                continue
            for b in range(off // bs, (off + size - 1) // bs + 1):
                if b not in blocks:
                    blocks[b] = self._cache.get((self._gen, self._path, b))
        missing = sorted(b for b, v in blocks.items() if v is None)
        if missing:
            pieces = self._inner.gather_read([(b * bs, bs) for b in missing])
            for b, piece in zip(missing, pieces):
                blocks[b] = piece
                if piece:
                    self._cache.put((self._gen, self._path, b), piece)
        out: list[bytes] = []
        for off, size in requests:
            out.append(self._assemble(blocks, off, size))
        return out

    def _assemble(self, blocks: dict, offset: int, size: int) -> bytes:
        """Stitch one request's bytes out of its covering blocks.

        A block shorter than the span it should cover means EOF fell
        inside it; the result shortens exactly like a direct backend
        read would.
        """
        if size <= 0:
            return b""
        bs = self._bs
        parts: list[bytes] = []
        pos = offset
        end = offset + size
        while pos < end:
            b = pos // bs
            data = blocks[b]
            lo = pos - b * bs
            hi = min(end - b * bs, bs)
            piece = data[lo:hi]
            parts.append(piece)
            if len(piece) < hi - lo:  # EOF inside this block
                break
            pos = b * bs + hi
        return b"".join(parts)
