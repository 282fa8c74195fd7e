"""Flat int64 columns: how the open path holds per-rank numbers.

Every per-rank sequence a collective open or close keeps — chunk sizes
and their geometry, the task mapping, a read partition, the metablocks'
rank and block tables — is one ``array('q')``: 8 bytes per rank in one
object, where a list costs a pointer plus, above 256, an ``int`` object
per entry.  At 2^20 ranks in one process that difference, not the data,
sets the memory of an open.  Columns are built once and never mutated,
so owners share them freely (a layout holds its metablock's chunk-size
column itself, not a copy).

numpy reads a column in place (:func:`ndarray_of`), and whole-array
results come back through :func:`column`.  Decoded on-disk arrays are
little-endian unsigned; a ``u64`` of 2^63 or more reads as a negative
int64, which the decoders' checks reject.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable

import numpy as np


def zeros(n: int) -> array:
    """A column of ``n`` zeros."""
    return array("q", bytes(8)) * n


def column(values: "Iterable[int] | np.ndarray") -> array:
    """A new int64 column holding ``values``.

    An ndarray is copied in once, in C (no per-entry ``int``); any other
    iterable of integers goes through ``array`` itself.  An entry outside
    int64 raises ``OverflowError``.
    """
    if isinstance(values, np.ndarray):
        out = zeros(len(values))
        np.frombuffer(out, dtype=np.int64)[:] = values
        return out
    return array("q", values)


def ndarray_of(col: array) -> np.ndarray:
    """A read-only int64 ndarray over ``col``'s memory (no copy)."""
    view = np.frombuffer(col, dtype=np.int64)
    view.flags.writeable = False
    return view


def decode_le(raw: bytes, dtype: str) -> array:
    """The little-endian unsigned integers in ``raw`` (``dtype`` ``<u8`` or
    ``<u4``) as a column."""
    return column(np.frombuffer(raw, dtype=dtype))


def encode_le(col: array) -> "memoryview | bytes":
    """``col`` as little-endian 8-byte integers — for a column with no
    negative entry, its ``<u8`` encoding — without a copy on a
    little-endian host (a byte view of the column)."""
    if sys.byteorder == "little":
        return memoryview(col).cast("B")
    swapped = array("q", col)
    swapped.byteswap()
    return swapped.tobytes()


def bounds_of(lengths: np.ndarray) -> array:
    """Row bounds of a ragged table: ``0`` and the running sum of ``lengths``."""
    out = zeros(len(lengths) + 1)
    np.cumsum(lengths, out=np.frombuffer(out, dtype=np.int64)[1:])
    return out
