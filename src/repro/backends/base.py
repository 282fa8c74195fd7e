"""Abstract storage interface consumed by the SION layer.

Kept deliberately small — exactly what the multifile format needs:
positioned binary I/O, existence/size/blocksize queries, and unlink.
Paths are plain strings interpreted by the backend.

Every data call is positioned: chunk addresses are computable locally
(paper §3.1), and so are the metablocks', so no handle carries a file
pointer.  ``pwrite``/``pread`` move one buffer; ``scatter_write`` and
``gather_read`` move a whole fragment list in one call, merging
physically contiguous runs into one vectored store call each — a
chunk-spanning write hands the *entire* fragment list to the backend
instead of one write per fragment.  A ``pwrite`` past end of file
leaves a hole where the store supports sparse files, so empty chunk
padding "exists only on the logical level".

All write-side calls accept any buffer-protocol object (``bytes``,
``bytearray``, ``memoryview``, NumPy arrays) and must not materialize
intermediate copies; the one copy a store may need happens inside it.

``pread`` returns exact ``bytes``; a ``gather_read`` piece is a ``bytes``
or a read-only ``memoryview`` of an immutable ``bytes`` (the simulated
store's pieces), which no later call changes, so a replay log keeps what
was read without a copy.  Consumers use only ``len``, slicing and the
buffer protocol.
"""

from __future__ import annotations

import abc
from typing import Iterable, Sequence

from repro.buffers import BufferLike, as_view
from repro.errors import BackendUsageError


class RawFile(abc.ABC):
    """An open file supporting positioned, vectored binary I/O."""

    @abc.abstractmethod
    def pwrite(self, offset: int, data: BufferLike) -> int:
        """Write ``data`` at ``offset``; returns bytes written."""

    @abc.abstractmethod
    def pread(self, offset: int, n: int) -> bytes:
        """Read up to ``n`` bytes at ``offset`` (short at end of file)."""

    @abc.abstractmethod
    def flush(self) -> None:
        """Push buffered data down to the store."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the handle; subsequent operations are invalid."""

    def scatter_write(self, fragments: Iterable["tuple[int, BufferLike]"]) -> int:
        """Write a whole fragment list — ``(offset, data)`` pairs — at once.

        This is the single backend call a chunk-spanning ``fwrite`` or a
        coalesced flush issues per operation.  Fragments must be disjoint;
        physically contiguous runs are merged into one :meth:`_pwritev`
        each.  Returns total bytes written.
        """
        frags = [(off, as_view(d)) for off, d in fragments]
        frags = [(off, v) for off, v in frags if v.nbytes]
        if not frags:
            return 0
        if len(frags) == 1:
            # Fast path for the overwhelmingly common small write: one
            # fragment needs no sorting or run merging.
            return self.pwrite(frags[0][0], frags[0][1])
        frags.sort(key=lambda f: f[0])
        total = 0
        i = 0
        while i < len(frags):
            run_off, view = frags[i]
            run = [view]
            end = run_off + view.nbytes
            i += 1
            while i < len(frags) and frags[i][0] == end:
                nxt = frags[i][1]
                run.append(nxt)
                end += nxt.nbytes
                i += 1
            total += self._pwritev(run_off, run)
        return total

    def gather_read(self, requests: Sequence["tuple[int, int]"]) -> "list[bytes | memoryview]":
        """Read a whole request list — ``(offset, size)`` pairs — at once.

        The read-side mirror of :meth:`scatter_write`: one backend call
        per chunk-spanning ``fread``.  Results come back in request
        order (``bytes`` or read-only views, module docstring); contiguous
        runs collapse into one :meth:`_preadv` each.
        """
        order = sorted(range(len(requests)), key=lambda k: requests[k][0])
        out: "list[bytes | memoryview]" = [b""] * len(requests)
        i = 0
        while i < len(order):
            first = order[i]
            run_off, size = requests[first]
            run_idx = [first]
            run_sizes = [size]
            end = run_off + size
            i += 1
            while i < len(order):
                nxt_off, nxt_size = requests[order[i]]
                if nxt_off != end:
                    break
                run_idx.append(order[i])
                run_sizes.append(nxt_size)
                end += nxt_size
                i += 1
            pieces = self._preadv(run_off, run_sizes)
            for idx, piece in zip(run_idx, pieces):
                out[idx] = piece
        return out

    # -- contiguous-run hooks beneath scatter_write / gather_read -----------

    def _pwritev(self, offset: int, views: Sequence[memoryview]) -> int:
        """Write non-empty ``views`` back to back from ``offset``.

        The portable loop; a store with a native vectored call overrides.
        """
        total = 0
        for view in views:
            total += self.pwrite(offset + total, view)
        return total

    def _preadv(self, offset: int, sizes: Sequence[int]) -> "list[bytes | memoryview]":
        """Read consecutive pieces of ``sizes`` from ``offset``.

        Pieces shorten, then empty, at end of file.  The portable loop; a
        store with a native vectored call overrides.
        """
        out: list[bytes] = []
        for size in sizes:
            if size < 0:
                raise BackendUsageError(f"negative read size: {size}")
            out.append(self.pread(offset, size) if size else b"")
            # Advance by the nominal size: a short piece means EOF, and
            # every later nominal offset lies beyond it (empty reads).
            offset += size
        return out

    def __enter__(self) -> "RawFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Backend(abc.ABC):
    """A place files live: the real FS or a simulated one."""

    @abc.abstractmethod
    def open(self, path: str, mode: str) -> RawFile:
        """Open ``path``; modes follow ``io.open`` binary conventions."""

    @abc.abstractmethod
    def exists(self, path: str) -> bool:
        """True if ``path`` exists."""

    @abc.abstractmethod
    def unlink(self, path: str) -> None:
        """Delete the file at ``path``."""

    @abc.abstractmethod
    def file_size(self, path: str) -> int:
        """Logical size of the file in bytes."""

    @abc.abstractmethod
    def stat_blocksize(self, path: str) -> int:
        """File-system block size governing alignment (paper: via fstat)."""

    @abc.abstractmethod
    def allocated_size(self, path: str) -> int:
        """Physically allocated bytes (for sparseness/defrag verification)."""

    def identity_token(self, path: str) -> tuple:
        """Cheap change-detection token for ``path`` (stat, not data reads).

        Two calls returning the same token mean the file content is
        unchanged with the fidelity the backend can offer; any mutation
        should change the token.  Caches (the read gateway's container
        table) use it as the close-to-open revalidation probe.  The
        default folds the sizes; real backends override with stronger
        signals (mtime/inode on the local FS, the mutation version in
        the simulator).
        """
        return (self.file_size(path), self.allocated_size(path))


class ForwardingBackend(Backend):
    """A backend decorator over ``inner``.

    The six namespace calls forward to ``inner`` unchanged; a decorator
    (counting, fault injection) defines ``open`` and its own extras.
    """

    def __init__(self, inner: Backend) -> None:
        self.inner = inner

    def exists(self, path: str) -> bool:
        return self.inner.exists(path)

    def unlink(self, path: str) -> None:
        self.inner.unlink(path)

    def file_size(self, path: str) -> int:
        return self.inner.file_size(path)

    def stat_blocksize(self, path: str) -> int:
        return self.inner.stat_blocksize(path)

    def allocated_size(self, path: str) -> int:
        return self.inner.allocated_size(path)

    def identity_token(self, path: str) -> tuple:
        return self.inner.identity_token(path)
