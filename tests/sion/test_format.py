"""Metablock binary format: roundtrips, corruption detection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.base import RawFile
from repro.errors import SionFormatError
from repro.sion.constants import MAPPING_BLOCKED, MAPPING_CUSTOM, SHADOW_HEADER_SIZE
from repro.sion.format import Metablock1, Metablock2, ShadowHeader


class MemFile(RawFile):
    """Minimal RawFile over a bytearray for format-level tests."""

    def __init__(self, data=b""):
        self._b = bytearray(data)

    def pwrite(self, offset, data):
        data = bytes(data)
        if offset > len(self._b):
            self._b.extend(bytes(offset - len(self._b)))
        self._b[offset : offset + len(data)] = data
        return len(data)

    def pread(self, offset, n):
        return bytes(self._b[offset : offset + n])

    def flush(self):
        pass

    def close(self):
        pass

    def getvalue(self):
        return bytes(self._b)


def _mb1(**kw):
    defaults = dict(
        fsblksize=4096,
        ntasks_local=3,
        nfiles=2,
        filenum=0,
        ntasks_global=6,
        start_of_data=4096,
        metablock2_offset=0,
        globalranks=[0, 2, 4],
        chunksizes=[100, 200, 300],
        flags=0,
        mapping_kind=MAPPING_BLOCKED,
    )
    defaults.update(kw)
    return Metablock1(**defaults)


class TestMetablock1:
    def test_roundtrip(self):
        mb1 = _mb1()
        f = MemFile(mb1.encode())
        back = Metablock1.decode_from(f)
        assert back == mb1

    def test_encoded_size_matches(self):
        mb1 = _mb1()
        assert len(mb1.encode()) == mb1.encoded_size

    def test_custom_mapping_table_roundtrip(self):
        table = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        mb1 = _mb1(mapping_kind=MAPPING_CUSTOM, mapping_table=table)
        back = Metablock1.decode_from(MemFile(mb1.encode()))
        assert back.mapping_table == table

    def test_custom_mapping_only_in_file_zero(self):
        mb1 = _mb1(
            filenum=1,
            mapping_kind=MAPPING_CUSTOM,
            globalranks=[1, 3, 5],
        )
        assert mb1.encoded_size < _mb1(
            mapping_kind=MAPPING_CUSTOM,
            mapping_table=[(0, 0)] * 6,
        ).encoded_size

    def test_bad_magic_rejected(self):
        raw = bytearray(_mb1().encode())
        raw[:4] = b"XXXX"
        with pytest.raises(SionFormatError, match="magic"):
            Metablock1.decode_from(MemFile(bytes(raw)))

    def test_truncated_header_rejected(self):
        with pytest.raises(SionFormatError):
            Metablock1.decode_from(MemFile(b"short"))

    def test_truncated_arrays_rejected(self):
        raw = _mb1().encode()[:-8]
        with pytest.raises(SionFormatError, match="truncated"):
            Metablock1.decode_from(MemFile(raw))

    def test_validation_catches_mismatched_lengths(self):
        with pytest.raises(SionFormatError):
            _mb1(globalranks=[0]).encode()
        with pytest.raises(SionFormatError):
            _mb1(chunksizes=[1]).encode()

    def test_validation_catches_bad_filenum(self):
        with pytest.raises(SionFormatError):
            _mb1(filenum=5).encode()

    def test_validation_catches_negative_chunks(self):
        with pytest.raises(SionFormatError):
            _mb1(chunksizes=[-1, 0, 0]).encode()

    def test_patch_metablock2_offset_in_place(self):
        mb1 = _mb1()
        f = MemFile(mb1.encode())
        mb1.patch_metablock2_offset(f, 123456)
        back = Metablock1.decode_from(f)
        assert back.metablock2_offset == 123456
        # Nothing else changed.
        assert back.chunksizes == mb1.chunksizes

    @settings(max_examples=40, deadline=None)
    @given(
        ntasks=st.integers(1, 40),
        fsblk=st.sampled_from([512, 4096, 1 << 21]),
        flags=st.integers(0, 3),
    )
    def test_roundtrip_property(self, ntasks, fsblk, flags):
        mb1 = Metablock1(
            fsblksize=fsblk,
            ntasks_local=ntasks,
            nfiles=1,
            filenum=0,
            ntasks_global=ntasks,
            start_of_data=fsblk,
            metablock2_offset=0,
            globalranks=list(range(ntasks)),
            chunksizes=[i * 7 for i in range(ntasks)],
            flags=flags,
        )
        back = Metablock1.decode_from(MemFile(mb1.encode()))
        assert back == mb1


class TestMetablock2:
    def test_roundtrip(self):
        mb2 = Metablock2(blocksizes=[[10, 20], [5], [0, 0, 7]])
        f = MemFile(b"\0" * 16 + mb2.encode())
        back = Metablock2.decode_from(f, 16)
        assert back.blocksizes == mb2.blocksizes
        assert back.maxblocks == 3

    def test_offset_zero_means_never_closed(self):
        f = MemFile(b"\0" * 100)
        with pytest.raises(SionFormatError, match="never closed"):
            Metablock2.decode_from(f, 0)

    def test_crc_detects_corruption(self):
        mb2 = Metablock2(blocksizes=[[100]])
        raw = bytearray(mb2.encode())
        raw[16] ^= 0xFF  # flip a bit inside the block-size payload
        with pytest.raises(SionFormatError, match="CRC"):
            Metablock2.decode_from(MemFile(b"\0" * 8 + bytes(raw)), 8)

    def test_truncation_detected(self):
        mb2 = Metablock2(blocksizes=[[100, 200]])
        raw = mb2.encode()[:-6]
        with pytest.raises(SionFormatError):
            Metablock2.decode_from(MemFile(b"\0" * 8 + raw), 8)

    def test_bad_magic(self):
        with pytest.raises(SionFormatError, match="magic"):
            Metablock2.decode_from(MemFile(b"\0" * 8 + b"NOTMAGIC" + b"\0" * 64), 8)

    def test_negative_sizes_rejected(self):
        with pytest.raises(SionFormatError):
            Metablock2(blocksizes=[[-5]]).encode()

    def test_empty_tasks_allowed(self):
        mb2 = Metablock2(blocksizes=[])
        back = Metablock2.decode_from(MemFile(b"\0" * 8 + mb2.encode()), 8)
        assert back.blocksizes == []
        assert back.maxblocks == 0

    @settings(max_examples=40, deadline=None)
    @given(
        blocksizes=st.lists(
            st.lists(st.integers(0, 2**40), min_size=1, max_size=5),
            min_size=1,
            max_size=20,
        )
    )
    def test_roundtrip_property(self, blocksizes):
        mb2 = Metablock2(blocksizes=blocksizes)
        back = Metablock2.decode_from(MemFile(b"\0" * 8 + mb2.encode()), 8)
        assert back.blocksizes == blocksizes


class TestShadowHeader:
    def test_roundtrip(self):
        hdr = ShadowHeader(ltask=7, block=3, written=123456789)
        raw = hdr.encode()
        assert len(raw) == SHADOW_HEADER_SIZE
        back = ShadowHeader.decode(raw)
        assert back == hdr

    def test_garbage_returns_none(self):
        assert ShadowHeader.decode(b"\0" * SHADOW_HEADER_SIZE) is None
        assert ShadowHeader.decode(b"short") is None

    def test_bitflip_returns_none(self):
        raw = bytearray(ShadowHeader(1, 2, 3).encode())
        raw[12] ^= 0x01
        assert ShadowHeader.decode(bytes(raw)) is None

    def test_decode_ignores_trailing_bytes(self):
        raw = ShadowHeader(0, 0, 42).encode() + b"PAYLOAD"
        back = ShadowHeader.decode(raw)
        assert back is not None and back.written == 42
