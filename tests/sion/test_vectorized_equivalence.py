"""Vectorized metadata plane == scalar reference, byte for byte.

ISSUE 3 replaced the per-task Python loops of the metadata plane
(:class:`ChunkLayout` geometry, metablock 1/2 array codecs, the mapping
table) with whole-array operations.  These property tests pin the
refactor: for any input, the ndarray paths must reproduce the scalar
reference implementations exactly — same integers, same encoded bytes.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.backends.simfs_backend import SimBackend
from repro.sion.constants import MAPPING_CUSTOM
from repro.sion.format import Metablock1, Metablock2
from repro.sion.layout import (
    ChunkLayout,
    _VECTOR_MIN_TASKS,
    scalar_chunk_geometry,
)
from repro.sion.mapping import TaskMapping

# Sizes beyond the vector threshold exercise the ndarray path; tiny and
# adversarially huge values exercise the scalar fallback.
_sizes = st.integers(min_value=0, max_value=1 << 45)
_fsblk = st.sampled_from([1, 512, 4096, 65536, 2 << 20])


class TestChunkGeometry:
    @settings(max_examples=40, deadline=None)
    @given(
        chunks=st.lists(_sizes, min_size=1, max_size=2 * _VECTOR_MIN_TASKS),
        fsblk=_fsblk,
    )
    def test_layout_matches_scalar_reference(self, chunks, fsblk):
        lay = ChunkLayout(fsblk, chunks, metablock1_size=123)
        aligned, prefix, capacity = scalar_chunk_geometry(chunks, fsblk)
        assert lay.aligned_sizes == aligned
        assert lay.chunk_prefix == prefix
        assert lay.block_capacity == capacity

    @settings(max_examples=10, deadline=None)
    @given(chunks=st.lists(st.integers(2**62, 2**68), min_size=1, max_size=80))
    def test_huge_values_fall_back_to_exact_big_ints(self, chunks):
        # Values past the int64-safe bound must not wrap: the scalar
        # big-int path takes over and stays exact.
        lay = ChunkLayout(4096, chunks, metablock1_size=0)
        aligned, prefix, capacity = scalar_chunk_geometry(chunks, 4096)
        assert lay.aligned_sizes == aligned
        assert lay.chunk_prefix == prefix
        assert lay.block_capacity == capacity


def _scalar_mb1_encode(mb1: Metablock1) -> bytes:
    """The pre-vectorization encoder, kept verbatim as a reference."""
    from repro.sion.constants import FORMAT_VERSION, MAGIC_MB1

    head = struct.pack(
        "<8sIIQIIIIQQ",
        MAGIC_MB1,
        FORMAT_VERSION,
        mb1.flags,
        mb1.fsblksize,
        mb1.ntasks_local,
        mb1.nfiles,
        mb1.filenum,
        mb1.ntasks_global,
        mb1.start_of_data,
        mb1.metablock2_offset,
    )
    parts = [head]
    parts.append(struct.pack(f"<{mb1.ntasks_local}Q", *mb1.globalranks))
    parts.append(struct.pack(f"<{mb1.ntasks_local}Q", *mb1.chunksizes))
    parts.append(struct.pack("<I", mb1.mapping_kind))
    if mb1.mapping_kind == MAPPING_CUSTOM and mb1.filenum == 0:
        flat = [v for pair in mb1.mapping_table for v in pair]
        parts.append(struct.pack(f"<{2 * mb1.ntasks_global}I", *flat))
    return b"".join(parts)


def _stored(data: bytes):
    """A simulated file holding ``data`` (the decoders read positioned)."""
    f = SimBackend().open("/mb", "w+b")
    f.pwrite(0, data)
    return f


def _scalar_mb2_encode(mb2: Metablock2) -> bytes:
    """The pre-vectorization encoder, kept verbatim as a reference."""
    import zlib

    from repro.sion.constants import MAGIC_MB2

    parts = [struct.pack("<8sI", MAGIC_MB2, mb2.ntasks_local)]
    nblocks = [len(b) for b in mb2.blocksizes]
    parts.append(struct.pack(f"<{mb2.ntasks_local}I", *nblocks))
    parts.extend(
        struct.pack(f"<{len(blocks)}Q", *blocks) for blocks in mb2.blocksizes
    )
    payload = b"".join(parts)
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


class TestMetablock1Bytes:
    @settings(max_examples=30, deadline=None)
    @given(
        ntasks=st.integers(1, 200),
        fsblk=_fsblk,
        data=st.data(),
    )
    def test_encode_matches_struct_reference(self, ntasks, fsblk, data):
        chunks = data.draw(
            st.lists(
                st.integers(0, 1 << 45), min_size=ntasks, max_size=ntasks
            )
        )
        mb1 = Metablock1(
            fsblksize=fsblk,
            ntasks_local=ntasks,
            nfiles=1,
            filenum=0,
            ntasks_global=ntasks,
            start_of_data=fsblk,
            metablock2_offset=0,
            globalranks=list(range(ntasks)),
            chunksizes=chunks,
        )
        raw = mb1.encode()
        assert raw == _scalar_mb1_encode(mb1)
        back = Metablock1.decode_from(_stored(raw))
        assert back == mb1

    @settings(max_examples=20, deadline=None)
    @given(ntasks=st.integers(1, 150), nfiles=st.integers(1, 7), seed=st.randoms())
    def test_custom_mapping_table_bytes_and_roundtrip(self, ntasks, nfiles, seed):
        nfiles = min(nfiles, ntasks)
        file_of = [seed.randrange(nfiles) for _ in range(ntasks)]
        for f in range(nfiles):  # every file non-empty
            file_of[seed.randrange(ntasks)] = f if f < ntasks else 0
        try:
            tmap = TaskMapping.custom(file_of)
        except Exception:
            return  # a file ended up empty; not this test's concern
        members = tmap.tasks_of_file(0)
        mb1 = Metablock1(
            fsblksize=4096,
            ntasks_local=len(members),
            nfiles=tmap.nfiles,
            filenum=0,
            ntasks_global=ntasks,
            start_of_data=4096,
            metablock2_offset=0,
            globalranks=members,
            chunksizes=[1024] * len(members),
            mapping_kind=MAPPING_CUSTOM,
            mapping_table=tmap.table_pairs(),
        )
        raw = mb1.encode()
        assert raw == _scalar_mb1_encode(mb1)
        back = Metablock1.decode_from(_stored(raw))
        assert back.mapping_table == tmap.table_pairs()


class TestMetablock2Bytes:
    @settings(max_examples=40, deadline=None)
    @given(
        blocksizes=st.lists(
            st.lists(st.integers(0, 1 << 50), min_size=0, max_size=6),
            min_size=1,
            max_size=120,
        )
    )
    def test_encode_matches_struct_reference_and_roundtrips(self, blocksizes):
        mb2 = Metablock2(blocksizes=blocksizes)
        raw = mb2.encode()
        assert raw == _scalar_mb2_encode(mb2)
        back = Metablock2.decode_from(_stored(b"\x00" * 64 + raw), 64)
        assert back.blocksizes == blocksizes


class TestMappingEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ntasks=st.integers(1, 400), nfiles=st.integers(1, 32))
    def test_blocked_matches_scalar_reference(self, ntasks, nfiles):
        if nfiles > ntasks:
            return
        m = TaskMapping.blocked(ntasks, nfiles)
        # Scalar reference: walk files front-loaded, assigning in order.
        base, extra = divmod(ntasks, nfiles)
        expect = []
        for f in range(nfiles):
            expect.extend((f, lr) for lr in range(base + (1 if f < extra else 0)))
        assert m.table_pairs() == expect

    @settings(max_examples=40, deadline=None)
    @given(ntasks=st.integers(1, 400), nfiles=st.integers(1, 32))
    def test_roundrobin_matches_scalar_reference(self, ntasks, nfiles):
        if nfiles > ntasks:
            return
        m = TaskMapping.roundrobin(ntasks, nfiles)
        counters = [0] * nfiles
        expect = []
        for r in range(ntasks):
            f = r % nfiles
            expect.append((f, counters[f]))
            counters[f] += 1
        assert m.table_pairs() == expect

    @settings(max_examples=40, deadline=None)
    @given(
        file_of=st.lists(st.integers(0, 5), min_size=1, max_size=300),
    )
    def test_custom_matches_scalar_reference(self, file_of):
        # Compact the file ids so every file is used (valid input).
        used = sorted(set(file_of))
        remap = {f: i for i, f in enumerate(used)}
        file_of = [remap[f] for f in file_of]
        m = TaskMapping.custom(file_of)
        counters = [0] * (max(file_of) + 1)
        expect = []
        for f in file_of:
            expect.append((f, counters[f]))
            counters[f] += 1
        assert m.table_pairs() == expect
        assert m.ntasks == len(file_of)
