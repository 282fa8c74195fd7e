"""``sioncat``: stream one logical task-local file to a file object.

The moral equivalent of ``cat`` for a logical file inside a multifile —
useful for piping a single task's log or trace into other tools without
extracting the whole set.
"""

from __future__ import annotations

import io
import sys

from repro.backends.base import Backend
from repro.sion import serial
from repro.sion.mapping import ReadPartition
from repro.sion.readwrite import PartitionStream
from repro.sion.serial import open_rank

#: Read granularity; small enough to stream, large enough to be cheap.
_PIECE = 256 * 1024


def cat_rank(
    path: str,
    rank: int,
    out: io.RawIOBase | io.BufferedIOBase | None = None,
    backend: Backend | None = None,
) -> int:
    """Copy rank ``rank``'s logical bytes to ``out`` (default: stdout).

    Streams in bounded pieces (never materializes the whole logical file);
    transparently decompresses compressed multifiles.  Returns the number
    of bytes written.
    """
    with open_rank(path, rank, backend=backend) as rf:
        return _drain(rf, out)


def cat_reader(
    path: str,
    reader: int,
    readers: int,
    out: io.RawIOBase | io.BufferedIOBase | None = None,
    backend: Backend | None = None,
) -> int:
    """Stream one reader's slice of an ``readers``-way partitioned read.

    The serial mirror of ``paropen(..., partitioned=True)``: reader
    ``reader`` of a ``readers``-rank analysis world owns a contiguous
    slice of the recorded task streams, and this streams their
    concatenation through one read cursor over the slice, in the same
    bounded pieces as :func:`cat_rank`.  The set's metadata is decoded
    **once** (a 64k-entry metablock per stream would be O(n²/m) work);
    returns the number of bytes written.
    """
    with serial.open(path, "r", backend=backend) as sf:
        part = ReadPartition.balanced(sf.ntasks, readers)
        return _drain(sf.slice(part.writers_of(reader)), out)


def _drain(cursor: PartitionStream, out: io.RawIOBase | io.BufferedIOBase | None) -> int:
    """Copy what remains of ``cursor`` to ``out`` (default: stdout)."""
    sink = out if out is not None else sys.stdout.buffer
    total = 0
    while piece := cursor.fread(_PIECE):
        sink.write(piece)
        total += len(piece)
    return total
