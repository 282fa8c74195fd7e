"""Single-file-sequential baseline: a designated writer for all tasks.

MP2C's original checkpoint path (paper §5.1): one I/O task gathers data
from all others — in bounded slabs, because the designated task has limited
memory — and writes a single file incrementally.  I/O is fully serialized
and limited to what one node can push; the alternating gather/write phases
halve throughput again.

File format: a small header (magic, ntasks, per-task byte counts) followed
by the tasks' payloads concatenated in rank order, so the file can be
re-scattered on restart.
"""

from __future__ import annotations

import struct

from repro.backends.base import Backend
from repro.backends.localfs import LocalBackend
from repro.errors import SionFormatError, SionUsageError
from repro.simmpi.comm import Comm

_MAGIC = b"SEQ1FILE"
_HEAD = struct.Struct("<8sI")

#: Default gather-slab bound (bytes of payload buffered at the writer).
DEFAULT_SLAB_BYTES = 1 << 20


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
    backend = backend if backend is not None else LocalBackend()
    if slab_bytes < 1:
        raise SionUsageError("slab_bytes must be positive")
    sizes = comm.allgather(len(data))
    f = backend.open(base, "wb") if comm.rank == root else None
    pos = _HEAD.size + 8 * comm.size  # the root's write offset
    if comm.rank == root:
        assert f is not None
        f.pwrite(0, _HEAD.pack(_MAGIC, comm.size))
        f.pwrite(_HEAD.size, struct.pack(f"<{comm.size}Q", *sizes))
    # Slab loop: every task streams its payload to the root in bounded
    # pieces; the root writes each piece before requesting the next.
    for src in range(comm.size):
        nslabs = max(1, -(-sizes[src] // slab_bytes))
        for s in range(nslabs):
            lo = s * slab_bytes
            hi = min(lo + slab_bytes, sizes[src])
            if comm.rank == src:
                comm.send(data[lo:hi], dest=root, tag=1)
            if comm.rank == root:
                piece = comm.recv(source=src, tag=1)
                assert f is not None
                pos += f.pwrite(pos, piece)
    if comm.rank == root:
        assert f is not None
        f.flush()
        f.close()
    comm.barrier()


def read_single_file(
    comm: Comm,
    base: str,
    backend: Backend | None = None,
    slab_bytes: int = DEFAULT_SLAB_BYTES,
    root: int = 0,
) -> bytes:
    """Root reads the single file incrementally and scatters the payloads."""
    backend = backend if backend is not None else LocalBackend()
    sizes: list[int] | None = None
    if comm.rank == root:
        f = backend.open(base, "rb")
        magic, ntasks = _HEAD.unpack(f.pread(0, _HEAD.size))
        if magic != _MAGIC:
            raise SionFormatError(f"{base}: not a single-file checkpoint")
        if ntasks != comm.size:
            raise SionUsageError(
                f"{base} holds {ntasks} tasks, communicator has {comm.size}"
            )
        sizes = list(struct.unpack(f"<{ntasks}Q", f.pread(_HEAD.size, 8 * ntasks)))
    sizes = comm.bcast(sizes, root=root)
    assert sizes is not None
    out = bytearray()
    pos = _HEAD.size + 8 * comm.size  # the root's read offset
    for dst in range(comm.size):
        nslabs = max(1, -(-sizes[dst] // slab_bytes))
        remaining = sizes[dst]
        for _ in range(nslabs):
            take = min(slab_bytes, remaining)
            remaining -= take
            if comm.rank == root:
                piece = f.pread(pos, take)
                pos += take
                if dst == root:
                    out.extend(piece)
                else:
                    comm.send(piece, dest=dst, tag=2)
            elif comm.rank == dst:
                out.extend(comm.recv(source=root, tag=2))
    if comm.rank == root:
        f.close()
    comm.barrier()
    return bytes(out)
