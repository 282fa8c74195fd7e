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
"""

from __future__ import annotations

import itertools
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.backends.base import RawFile
from repro.errors import SionFormatError
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
_MB2_HEAD = struct.Struct("<8sI")
_SHADOW = struct.Struct("<8sIIQQ")  # magic, ltask, block, written, crc


def _pack_array(values, dtype: str, what: str) -> bytes:
    """Little-endian array encoding in one C pass (no ``struct`` splat).

    Byte-for-byte identical to ``struct.pack(f"<{n}{fmt}", *values)`` for
    in-range values; out-of-range values raise :class:`SionFormatError`
    instead of ``struct.error``.
    """
    try:
        return np.asarray(values, dtype=dtype).tobytes()
    except (OverflowError, ValueError, TypeError) as exc:
        raise SionFormatError(f"cannot encode {what}: {exc}") from None


def _pack_flat_u64(nested, count: int, what: str) -> bytes:
    """Encode a ragged list-of-lists of u64 as one flat little-endian run."""
    try:
        flat = np.fromiter(
            itertools.chain.from_iterable(nested), dtype=np.uint64, count=count
        )
    except (OverflowError, ValueError, TypeError) as exc:
        raise SionFormatError(f"cannot encode {what}: {exc}") from None
    return flat.astype("<u8", copy=False).tobytes()


@dataclass
class Metablock1:
    """Layout metadata at the head of one physical file."""

    fsblksize: int
    ntasks_local: int
    nfiles: int
    filenum: int
    ntasks_global: int
    start_of_data: int
    metablock2_offset: int
    globalranks: list[int]
    chunksizes: list[int]  # requested (pre-alignment) chunk sizes, bytes
    flags: int = 0
    mapping_kind: int = MAPPING_BLOCKED
    # Only present in file 0 when mapping_kind == MAPPING_CUSTOM:
    mapping_table: list[tuple[int, int]] = field(default_factory=list)

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
        if self.mapping_kind not in (
            MAPPING_BLOCKED,
            MAPPING_ROUNDROBIN,
            MAPPING_CUSTOM,
        ):
            raise SionFormatError(f"unknown mapping kind {self.mapping_kind}")
        if self.mapping_kind == MAPPING_CUSTOM and self.filenum == 0:
            if len(self.mapping_table) != self.ntasks_global:
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
        parts = [head]
        parts.append(_pack_array(self.globalranks, "<u8", "globalranks"))
        parts.append(_pack_array(self.chunksizes, "<u8", "chunksizes"))
        parts.append(struct.pack("<I", self.mapping_kind))
        if self.mapping_kind == MAPPING_CUSTOM and self.filenum == 0:
            # An (ntasks, 2) array serializes row-major: exactly the
            # flattened (file, local rank) pair stream of the format.
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
        granks = _read_array(f, pos, "<u8", ntasks_local, "globalranks")
        pos += 8 * ntasks_local
        chunks = _read_array(f, pos, "<u8", ntasks_local, "chunksizes")
        pos += 8 * ntasks_local
        (mapping_kind,) = struct.unpack("<I", _read_exact(f, pos, 4, "mapping kind"))
        table: list[tuple[int, int]] = []
        if mapping_kind == MAPPING_CUSTOM and filenum == 0:
            # One frombuffer for the whole table; the strided views split
            # the (file, local rank) columns without a per-task loop.
            flat = _read_array(f, pos + 4, "<u4", 2 * ntasks_global, "mapping table")
            table = list(zip(flat[0::2].tolist(), flat[1::2].tolist()))
        mb1 = cls(
            fsblksize=fsblksize,
            ntasks_local=ntasks_local,
            nfiles=nfiles,
            filenum=filenum,
            ntasks_global=ntasks_global,
            start_of_data=start_of_data,
            metablock2_offset=mb2_offset,
            globalranks=granks.tolist(),
            chunksizes=chunks.tolist(),
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
        f.pwrite(_MB1_HEAD.size - 8, struct.pack("<Q", offset))


@dataclass
class Metablock2:
    """Write-accounting metadata appended at close time.

    ``blocksizes[t][b]`` is the number of bytes task ``t`` (local index)
    actually wrote into its chunk of block ``b``.
    """

    blocksizes: list[list[int]]

    @property
    def ntasks_local(self) -> int:
        return len(self.blocksizes)

    @property
    def maxblocks(self) -> int:
        """Largest per-task block count (the multifile's block count)."""
        return max((len(b) for b in self.blocksizes), default=0)

    def validate(self) -> None:
        for t, blocks in enumerate(self.blocksizes):
            # min() is one C pass per task, vs. a Python loop per block.
            if blocks and min(blocks) < 0:
                raise SionFormatError(f"task {t}: negative block size")

    def encode(self) -> bytes:
        """Serialize with a trailing CRC32 over the payload.

        The per-task u64 runs concatenate into one flat little-endian
        array, encoded in a single pass — byte-identical to the former
        per-task ``struct.pack`` loop.
        """
        self.validate()
        nblocks = [len(b) for b in self.blocksizes]
        payload = b"".join(
            (
                _MB2_HEAD.pack(MAGIC_MB2, self.ntasks_local),
                _pack_array(nblocks, "<u4", "metablock 2 block counts"),
                _pack_flat_u64(self.blocksizes, sum(nblocks), "metablock 2 block sizes"),
            )
        )
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        return payload + struct.pack("<I", crc)

    @classmethod
    def decode_from(cls, f: RawFile, offset: int) -> "Metablock2":
        """Read and verify metablock 2 at ``offset``.

        All per-task block-size runs are fetched as one read and decoded
        with a single ``frombuffer``; the rows are then sliced out of the
        decoded flat list (C-speed slicing, no per-entry unpacking).
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
        flat = np.frombuffer(sizes_raw, dtype="<u8").tolist()
        bounds = np.concatenate(([0], np.cumsum(nblocks, dtype=np.int64))).tolist()
        blocksizes = [flat[bounds[t] : bounds[t + 1]] for t in range(ntasks)]
        return cls(blocksizes=blocksizes)


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


def _read_exact(f: RawFile, offset: int, n: int, what: str) -> bytes:
    raw = f.pread(offset, n)
    if len(raw) != n:
        raise SionFormatError(f"truncated multifile while reading {what}")
    return raw


def _read_array(
    f: RawFile, offset: int, dtype: str, count: int, what: str
) -> np.ndarray:
    """Read ``count`` little-endian integers at ``offset`` as one view."""
    width = np.dtype(dtype).itemsize
    raw = _read_exact(f, offset, width * count, what)
    return np.frombuffer(raw, dtype=dtype, count=count)
