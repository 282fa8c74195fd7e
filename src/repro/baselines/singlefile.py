"""Single-file-sequential baseline: a designated writer for all tasks.

MP2C's original checkpoint path (paper §5.1): one I/O task gathers data
from all others — in bounded slabs, because the designated task has limited
memory — and writes a single file incrementally.  I/O is fully serialized
and limited to what one node can push; the alternating gather/write phases
halve throughput again.

Both directions run in *slab rounds* over the payload region: round ``r``
covers file bytes ``[r * slab_bytes, (r + 1) * slab_bytes)`` past the
header.  Writing, every task ``gatherv``s its slice of that window (empty
when it holds none of it) to the root, which writes the round with one
``pwrite``; reading, the root ``pread``s the window and ``scatterv``s it.
The root so buffers at most ``slab_bytes`` of payload per round.  Each of
the root's backend steps (open plus header, a round's ``pwrite`` or
``pread``, the close) is one ``Comm.exec_once``, so an engine that replays
a rank body issues each of them once.

File format: a small header (magic, ntasks, per-task byte counts) followed
by the tasks' payloads concatenated in rank order, so the file can be
re-scattered on restart.
"""

from __future__ import annotations

import struct
from itertools import accumulate

from repro.backends.base import Backend
from repro.backends.localfs import LocalBackend
from repro.buffers import as_view, concat_views
from repro.errors import SionFormatError, SionUsageError
from repro.simmpi.comm import Comm

_MAGIC = b"SEQ1FILE"
_HEAD = struct.Struct("<8sI")

#: Default gather-slab bound (bytes of payload buffered at the writer).
DEFAULT_SLAB_BYTES = 1 << 20


def _check_slab(slab_bytes: int) -> None:
    if slab_bytes < 1:
        raise SionUsageError("slab_bytes must be positive")


def _spans(sizes: list[int]) -> list[tuple[int, int]]:
    """Each rank's ``[start, end)`` in the concatenated payload region."""
    ends = list(accumulate(sizes))
    return list(zip([0, *ends], ends))


def _clip(span: tuple[int, int], lo: int, hi: int) -> tuple[int, int]:
    """``span`` cut to the round window ``[lo, hi)``; empty when apart."""
    a, b = span
    return min(max(a, lo), hi), min(max(b, lo), hi)


def write_single_file(
    comm: Comm,
    base: str,
    data: bytes,
    backend: Backend | None = None,
    slab_bytes: int = DEFAULT_SLAB_BYTES,
    root: int = 0,
) -> None:
    """Gather all tasks' payloads at ``root`` and write them sequentially.

    ``slab_bytes`` bounds how much payload the root buffers per round,
    forcing the multiple gather/write cycles the paper describes.  All
    tasks must call this collectively.
    """
    _check_slab(slab_bytes)
    backend = backend if backend is not None else LocalBackend()
    view = as_view(data)
    sizes = comm.allgather(len(view))
    head = _HEAD.size + 8 * comm.size
    f = None
    if comm.rank == root:
        f = comm.exec_once(lambda: _create(backend, base, sizes))
    spans = _spans(sizes)
    own, total = spans[comm.rank][0], spans[-1][1]
    for lo in range(0, total, slab_bytes):
        a, b = _clip(spans[comm.rank], lo, min(lo + slab_bytes, total))
        rows = comm.gatherv((view[a - own : b - own],) if a < b else (), root=root)
        if f is not None:
            comm.exec_once(
                lambda: f.pwrite(head + lo, concat_views([p for row in rows for p in row]))
            )
    if f is not None:
        comm.exec_once(lambda: _close(f))
    comm.barrier()


def _create(backend: Backend, base: str, sizes: list[int]):
    """Create the file and write its header; the root's first backend step."""
    f = backend.open(base, "wb")
    f.pwrite(0, _HEAD.pack(_MAGIC, len(sizes)))
    f.pwrite(_HEAD.size, struct.pack(f"<{len(sizes)}Q", *sizes))
    return f


def _close(f) -> None:
    f.flush()
    f.close()


def read_single_file(
    comm: Comm,
    base: str,
    backend: Backend | None = None,
    slab_bytes: int = DEFAULT_SLAB_BYTES,
    root: int = 0,
) -> bytes:
    """Root reads the single file incrementally and scatters the payloads."""
    _check_slab(slab_bytes)
    backend = backend if backend is not None else LocalBackend()
    sizes: list[int] | None = None
    f = None
    if comm.rank == root:
        f, sizes = comm.exec_once(lambda: _open(backend, base, comm.size))
    sizes = comm.bcast(sizes, root=root)
    assert sizes is not None
    head = _HEAD.size + 8 * comm.size
    spans = _spans(sizes)
    total = spans[-1][1]
    pieces: list = []
    for lo in range(0, total, slab_bytes):
        hi = min(lo + slab_bytes, total)
        rows = None
        if f is not None:
            window = memoryview(comm.exec_once(lambda: f.pread(head + lo, hi - lo)))
            cuts = (_clip(span, lo, hi) for span in spans)
            rows = [(window[a - lo : b - lo],) if a < b else () for a, b in cuts]
        pieces.extend(comm.scatterv(rows, root=root))
    if f is not None:
        comm.exec_once(f.close)
    comm.barrier()
    return concat_views(pieces) if pieces else b""


def _open(backend: Backend, base: str, ntasks: int):
    """Open the file and read its header; the root's first backend step."""
    f = backend.open(base, "rb")
    magic, count = _HEAD.unpack(f.pread(0, _HEAD.size))
    if magic != _MAGIC:
        raise SionFormatError(f"{base}: not a single-file checkpoint")
    if count != ntasks:
        raise SionUsageError(f"{base} holds {count} tasks, communicator has {ntasks}")
    return f, list(struct.unpack(f"<{count}Q", f.pread(_HEAD.size, 8 * count)))
