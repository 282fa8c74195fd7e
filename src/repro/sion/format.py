"""Binary encoding of the multifile metablocks.

A physical SION file looks like (paper Fig. 2):

```
+-------------+------------------- ... -------------------+-------------+
| metablock 1 | block 0 | block 1 | ...      (chunk data) | metablock 2 |
+-------------+------------------- ... -------------------+-------------+
```

*Metablock 1* is written at offset 0 during the collective open: layout
parameters (fs block size, chunk sizes, global ranks) plus, in physical
file 0, the task-to-file mapping.  Its ``metablock2_offset`` field is
patched during the collective close, when *metablock 2* — per-task block
counts and bytes actually written per chunk — is appended at the end.

All integers are little-endian.  Metablock 2 carries a CRC32 so truncation
and corruption are detectable (the recovery path, paper §6, reconstructs it
from per-chunk shadow headers).

In memory every per-task table is an int64 column
(:mod:`repro.sion.columns`): metablock 1's global ranks, chunk sizes and
custom mapping table, and metablock 2's block sizes as one flat column
with per-task bounds.
"""

from __future__ import annotations

import bisect
import itertools
import struct
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.backends.base import RawFile
from repro.errors import SionFormatError
from repro.sion.columns import bounds_of, column, decode_le, encode_le, ndarray_of
from repro.sion.constants import (
    FORMAT_VERSION,
    MAGIC_MB1,
    MAGIC_MB2,
    MAGIC_SHADOW,
    MAPPING_BLOCKED,
    MAPPING_CUSTOM,
    MAPPING_ROUNDROBIN,
    SHADOW_HEADER_SIZE,
)

_MB1_HEAD = struct.Struct("<8sIIQIIIIQQ")
# magic, version, flags, fsblksize, ntasks_local, nfiles, filenum,
# ntasks_global, start_of_data, metablock2_offset
#: File offset of metablock 1's ``metablock2_offset`` field (the last ``Q``
#: of the head), which the close patches.
MB2_OFFSET_FIELD = _MB1_HEAD.size - 8
_MB2_HEAD = struct.Struct("<8sI")
_SHADOW = struct.Struct("<8sIIQQ")  # magic, ltask, block, written, crc


def _pack_array(values, dtype: str, what: str) -> bytes:
    """Little-endian array encoding in one C pass (no ``struct`` splat).

    Byte-for-byte identical to ``struct.pack(f"<{n}{fmt}", *values)`` for
    in-range values; out-of-range values (a negative entry of an int64
    column included) raise :class:`SionFormatError` instead of
    ``struct.error``.
    """
    try:
        arr = np.asarray(values)
        low, high = (arr.min(), arr.max()) if arr.size else (0, 0)
        fits = low >= 0 and high <= np.iinfo(dtype).max
        data = arr.astype(dtype).tobytes() if fits else b""
    except (OverflowError, ValueError, TypeError) as exc:
        raise SionFormatError(f"cannot encode {what}: {exc}") from None
    if not fits:
        bad = low if low < 0 else high
        raise SionFormatError(f"cannot encode {what}: value {bad} out of range")
    return data


def _column(values: Iterable[int], what: str) -> array:
    """``values`` as an int64 column, or :class:`SionFormatError` if one
    does not fit."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    try:
        return column(values)
    except (OverflowError, TypeError) as exc:
        raise SionFormatError(f"cannot encode {what}: {exc}") from None


@dataclass
class Metablock1:
    """Layout metadata at the head of one physical file.

    ``globalranks``, ``chunksizes`` and ``mapping_table`` are int64
    columns; any integer sequence given is stored as one.
    """

    fsblksize: int
    ntasks_local: int
    nfiles: int
    filenum: int
    ntasks_global: int
    start_of_data: int
    metablock2_offset: int
    globalranks: array
    chunksizes: array  # requested (pre-alignment) chunk sizes, bytes
    flags: int = 0
    mapping_kind: int = MAPPING_BLOCKED
    # Only present in file 0 when mapping_kind == MAPPING_CUSTOM: the
    # (file, local rank) pairs, interleaved (TaskMapping.pairs).
    mapping_table: array = field(default_factory=lambda: array("q"))

    def __post_init__(self) -> None:
        self.globalranks = _column(self.globalranks, "globalranks")
        self.chunksizes = _column(self.chunksizes, "chunksizes")
        self.mapping_table = _column(self.mapping_table, "mapping table")

    def validate(self) -> None:
        """Raise :class:`SionFormatError` on internally inconsistent values."""
        if self.fsblksize < 1:
            raise SionFormatError(f"fsblksize must be positive: {self.fsblksize}")
        if self.ntasks_local < 0 or self.ntasks_global < self.ntasks_local:
            raise SionFormatError(
                f"bad task counts: local={self.ntasks_local} "
                f"global={self.ntasks_global}"
            )
        if not 0 <= self.filenum < max(self.nfiles, 1):
            raise SionFormatError(
                f"filenum {self.filenum} out of range for nfiles {self.nfiles}"
            )
        if len(self.globalranks) != self.ntasks_local:
            raise SionFormatError("globalranks length mismatch")
        if len(self.chunksizes) != self.ntasks_local:
            raise SionFormatError("chunksizes length mismatch")
        if self.chunksizes and min(self.chunksizes) < 0:
            raise SionFormatError("negative chunk size")
        if self.globalranks and min(self.globalranks) < 0:
            raise SionFormatError("negative global rank")
        if self.mapping_kind not in (
            MAPPING_BLOCKED,
            MAPPING_ROUNDROBIN,
            MAPPING_CUSTOM,
        ):
            raise SionFormatError(f"unknown mapping kind {self.mapping_kind}")
        if self.mapping_kind == MAPPING_CUSTOM and self.filenum == 0:
            if len(self.mapping_table) != 2 * self.ntasks_global:
                raise SionFormatError("custom mapping table length mismatch")

    def encode(self) -> bytes:
        """Serialize; the result's length is the metablock-1 size on disk."""
        self.validate()
        head = _MB1_HEAD.pack(
            MAGIC_MB1,
            FORMAT_VERSION,
            self.flags,
            self.fsblksize,
            self.ntasks_local,
            self.nfiles,
            self.filenum,
            self.ntasks_global,
            self.start_of_data,
            self.metablock2_offset,
        )
        # validate() refused negative entries: the columns' little-endian
        # bytes are their u64 encoding.
        parts = [head, encode_le(self.globalranks), encode_le(self.chunksizes)]
        parts.append(struct.pack("<I", self.mapping_kind))
        if self.mapping_kind == MAPPING_CUSTOM and self.filenum == 0:
            # The interleaved column is exactly the format's flattened
            # (file, local rank) pair stream.
            parts.append(_pack_array(self.mapping_table, "<u4", "mapping table"))
        return b"".join(parts)

    @property
    def encoded_size(self) -> int:
        """Size of the encoded metablock without building it."""
        n = _MB1_HEAD.size + 16 * self.ntasks_local + 4
        if self.mapping_kind == MAPPING_CUSTOM and self.filenum == 0:
            n += 8 * self.ntasks_global
        return n

    @classmethod
    def decode_from(cls, f: RawFile) -> "Metablock1":
        """Read and parse metablock 1 from the start of ``f``."""
        raw = f.pread(0, _MB1_HEAD.size)
        if len(raw) != _MB1_HEAD.size:
            raise SionFormatError("file too short for a SION metablock 1")
        (
            magic,
            version,
            flags,
            fsblksize,
            ntasks_local,
            nfiles,
            filenum,
            ntasks_global,
            start_of_data,
            mb2_offset,
        ) = _MB1_HEAD.unpack(raw)
        if magic != MAGIC_MB1:
            raise SionFormatError(
                f"not a SION multifile (magic {magic!r} != {MAGIC_MB1!r})"
            )
        if version != FORMAT_VERSION:
            raise SionFormatError(f"unsupported format version {version}")
        pos = _MB1_HEAD.size
        granks = _read_column(f, pos, "<u8", ntasks_local, "globalranks")
        pos += 8 * ntasks_local
        chunks = _read_column(f, pos, "<u8", ntasks_local, "chunksizes")
        pos += 8 * ntasks_local
        (mapping_kind,) = struct.unpack("<I", _read_exact(f, pos, 4, "mapping kind"))
        table = array("q")
        if mapping_kind == MAPPING_CUSTOM and filenum == 0:
            table = _read_column(f, pos + 4, "<u4", 2 * ntasks_global, "mapping table")
        mb1 = cls(
            fsblksize=fsblksize,
            ntasks_local=ntasks_local,
            nfiles=nfiles,
            filenum=filenum,
            ntasks_global=ntasks_global,
            start_of_data=start_of_data,
            metablock2_offset=mb2_offset,
            globalranks=granks,
            chunksizes=chunks,
            flags=flags,
            mapping_kind=mapping_kind,
            mapping_table=table,
        )
        mb1.validate()
        return mb1

    def patch_metablock2_offset(self, f: RawFile, offset: int) -> None:
        """Rewrite only the ``metablock2_offset`` field in place."""
        self.metablock2_offset = offset
        # Field position: after 8s I I Q I I I I Q = 8+4+4+8+4+4+4+4+8 = 48.
        f.pwrite(MB2_OFFSET_FIELD, struct.pack("<Q", offset))


class Metablock2:
    """Write-accounting metadata appended at close time.

    The block table: ``row(t)[b]`` is the number of bytes task ``t``
    (local index) actually wrote into its chunk of block ``b``.  It is
    held as two int64 columns, every task's row laid end to end in
    ``sizes`` and task ``t``'s row at ``sizes[bounds[t]:bounds[t + 1]]``,
    which is also the on-disk order.  The constructor takes the rows
    (any sequence of integer sequences); :meth:`from_packed` takes them
    as the compact rows a ``parclose`` deposits.
    """

    __slots__ = ("sizes", "bounds")

    def __init__(self, blocksizes: Iterable[Sequence[int]] = ()) -> None:
        rows = list(blocksizes)
        self.sizes = _column(
            itertools.chain.from_iterable(rows), "metablock 2 block sizes"
        )
        self.bounds = bounds_of(np.fromiter(map(len, rows), np.int64, len(rows)))

    @classmethod
    def from_columns(cls, sizes: array, bounds: array) -> "Metablock2":
        """The table whose rows are ``sizes`` cut at ``bounds`` (both kept)."""
        mb2 = cls.__new__(cls)
        mb2.sizes, mb2.bounds = sizes, bounds
        return mb2

    @classmethod
    def from_packed(cls, rows: "Sequence[int | bytes]") -> "Metablock2":
        """The table of compact rows: a one-block row is its ``int`` size
        (a cached small int, or 28 bytes), any other row its sizes packed
        as native int64 ``bytes`` — where a list of one ``int`` costs
        about 90 bytes."""
        sizes = array("q")
        for row in rows:
            if row.__class__ is int:
                sizes.append(row)
            else:
                sizes.frombytes(row)
        lengths = (1 if r.__class__ is int else len(r) >> 3 for r in rows)
        return cls.from_columns(sizes, array("q", itertools.accumulate(lengths, initial=0)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Metablock2):
            return NotImplemented
        return self.bounds == other.bounds and self.sizes == other.sizes

    @property
    def ntasks_local(self) -> int:
        return len(self.bounds) - 1

    def row(self, task: int) -> array:
        """Task ``task``'s block sizes (a small column of its own)."""
        return self.sizes[self.bounds[task] : self.bounds[task + 1]]

    def nblocks(self) -> np.ndarray:
        """Each task's block count."""
        return np.diff(ndarray_of(self.bounds))

    @property
    def maxblocks(self) -> int:
        """Largest per-task block count (the multifile's block count)."""
        return int(self.nblocks().max()) if self.ntasks_local else 0

    def validate(self) -> None:
        # min() is one C pass over the flat column.
        if self.sizes and min(self.sizes) < 0:
            at = self.sizes.index(min(self.sizes))
            t = bisect.bisect_right(self.bounds, at) - 1
            raise SionFormatError(f"task {t}: negative block size")

    def encode(self) -> bytes:
        """Serialize with a trailing CRC32 over the payload.

        The flat column is the format's u64 run of every task's block
        sizes, so it encodes in one pass — byte-identical to the former
        per-task ``struct.pack`` loop.
        """
        self.validate()
        parts = [
            _MB2_HEAD.pack(MAGIC_MB2, self.ntasks_local),
            _pack_array(self.nblocks(), "<u4", "metablock 2 block counts"),
            encode_le(self.sizes),  # validated non-negative: its u64 run
        ]
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        parts.append(struct.pack("<I", crc & 0xFFFFFFFF))
        return b"".join(parts)

    @classmethod
    def decode_from(cls, f: RawFile, offset: int) -> "Metablock2":
        """Read and verify metablock 2 at ``offset``.

        The block counts and the block sizes are each one read decoded
        by one ``frombuffer``: straight into the two columns, with no
        per-task object.  A stored size of 2^63 or more reads as negative
        (:func:`~repro.sion.loader.load_metablock2` refuses it).
        """
        if offset <= 0:
            raise SionFormatError(
                "metablock 2 offset not set (file was never closed cleanly)"
            )
        head = _read_exact(f, offset, _MB2_HEAD.size, "metablock 2 header")
        magic, ntasks = _MB2_HEAD.unpack(head)
        if magic != MAGIC_MB2:
            raise SionFormatError(
                f"bad metablock 2 magic {magic!r} at offset {offset}"
            )
        pos = offset + _MB2_HEAD.size
        nblocks_raw = _read_exact(f, pos, 4 * ntasks, "metablock 2 block counts")
        nblocks = np.frombuffer(nblocks_raw, dtype="<u4")
        total = int(nblocks.sum())
        pos += 4 * ntasks
        sizes_raw = _read_exact(f, pos, 8 * total, "metablock 2 block sizes")
        payload = head + nblocks_raw + sizes_raw
        raw_crc = _read_exact(f, pos + 8 * total, 4, "metablock 2 crc")
        (stored_crc,) = struct.unpack("<I", raw_crc)
        if stored_crc != (zlib.crc32(payload) & 0xFFFFFFFF):
            raise SionFormatError("metablock 2 CRC mismatch (corrupt or truncated)")
        return cls.from_columns(decode_le(sizes_raw, "<u8"), bounds_of(nblocks))


@dataclass
class ShadowHeader:
    """Tiny per-chunk header enabling metablock-2 reconstruction (§6)."""

    ltask: int
    block: int
    written: int

    def encode(self) -> bytes:
        body = _SHADOW.pack(MAGIC_SHADOW, self.ltask, self.block, self.written, 0)
        crc = zlib.crc32(body[:-8]) & 0xFFFFFFFF
        out = _SHADOW.pack(MAGIC_SHADOW, self.ltask, self.block, self.written, crc)
        assert len(out) == SHADOW_HEADER_SIZE
        return out

    @classmethod
    def decode(cls, raw: bytes) -> "ShadowHeader | None":
        """Parse a shadow header; ``None`` if the bytes aren't one."""
        if len(raw) < SHADOW_HEADER_SIZE:
            return None
        magic, ltask, block, written, crc = _SHADOW.unpack(raw[:SHADOW_HEADER_SIZE])
        if magic != MAGIC_SHADOW:
            return None
        expect = zlib.crc32(_SHADOW.pack(magic, ltask, block, written, 0)[:-8])
        if crc != (expect & 0xFFFFFFFF):
            return None
        return cls(ltask=ltask, block=block, written=written)


#: Largest single read a decode issues.  A count-sized read above it goes
#: piece by piece, so a hostile count field fails "truncated" at the first
#: short piece instead of asking the store for the bytes it claims.  16 MiB
#: is metablock 1 of a 2^20-task file, so real reads stay one ``pread``.
_READ_PIECE = 16 << 20


def _read_exact(f: RawFile, offset: int, n: int, what: str) -> bytes:
    pieces = []
    done = 0
    while True:
        want = min(n - done, _READ_PIECE)
        piece = f.pread(offset + done, want)
        if len(piece) != want:
            raise SionFormatError(f"truncated multifile while reading {what}")
        pieces.append(piece)
        done += want
        if done == n:
            return pieces[0] if len(pieces) == 1 else b"".join(pieces)


def _read_column(f: RawFile, offset: int, dtype: str, count: int, what: str) -> array:
    """Read ``count`` little-endian integers at ``offset`` as one column."""
    width = np.dtype(dtype).itemsize
    return decode_le(_read_exact(f, offset, width * count, what), dtype)
