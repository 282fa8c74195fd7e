"""Vectored/positioned RawFile protocol: identical semantics on both backends.

The contiguous-run hooks (``_pwritev``/``_preadv``) are private to the
stores; they are reached here the way the SION layer reaches them,
through ``scatter_write`` and ``gather_read``.
"""

import numpy as np
import pytest

from repro.buffers import as_view


def _path(base, name):
    return f"{base.rstrip('/')}/{name}"


class TestAsView:
    def test_wraps_without_copy(self):
        for src in (b"abcdef", bytearray(b"abcdef"), np.arange(6, dtype=np.uint8)):
            view = as_view(src)
            assert view.obj is src
            assert view.nbytes == 6
        mv = memoryview(b"abcdef")
        assert as_view(mv) is mv

    def test_slices_keep_the_exporter(self):
        src = bytearray(b"0123456789")
        view = as_view(memoryview(src)[2:8])
        assert view.obj is src
        assert bytes(view) == b"234567"

    def test_casts_wide_dtypes(self):
        arr = np.arange(4, dtype=np.float64)
        view = as_view(arr)
        assert view.nbytes == 32
        assert view.obj is arr  # cast preserves the exporter

    def test_non_contiguous_copies_once(self):
        arr = np.arange(16, dtype=np.uint8)
        strided = arr[::2]
        view = as_view(strided)
        assert bytes(view) == strided.tobytes()
        assert view.obj is not strided  # flattened: the one entry-boundary copy

    def test_rejects_non_buffers(self):
        with pytest.raises(TypeError):
            as_view("not bytes")


class TestPositioned:
    def test_pwrite_pread_roundtrip(self, any_backend):
        backend, base = any_backend
        p = _path(base, "p.bin")
        with backend.open(p, "w+b") as f:
            f.pwrite(0, b"\0" * 32)
            assert f.pwrite(4, b"XYZ") == 3
            assert f.pread(4, 3) == b"XYZ"
            assert f.pread(0, 64) == b"\0" * 4 + b"XYZ" + b"\0" * 25

    def test_pwrite_accepts_any_buffer(self, any_backend):
        backend, base = any_backend
        p = _path(base, "b.bin")
        with backend.open(p, "w+b") as f:
            f.pwrite(0, b"aa")
            f.pwrite(2, bytearray(b"bb"))
            f.pwrite(4, memoryview(b"cc"))
            f.pwrite(6, np.frombuffer(b"dd", dtype=np.uint8))
            assert f.pread(0, 8) == b"aabbccdd"

    def test_pread_past_eof_shortens(self, any_backend):
        backend, base = any_backend
        p = _path(base, "eof.bin")
        with backend.open(p, "w+b") as f:
            f.pwrite(0, b"12345")
            assert f.pread(3, 10) == b"45"
            assert f.pread(99, 4) == b""


class TestVectored:
    def test_pwritev_contiguous_gather(self, any_backend):
        backend, base = any_backend
        p = _path(base, "v.bin")
        with backend.open(p, "w+b") as f:
            frags = [(4, b"ab"), (6, bytearray(b"cd")), (8, memoryview(b"ef"))]
            assert f.scatter_write(frags) == 6
            assert f.pread(0, 10) == b"\0\0\0\0abcdef"

    def test_pwritev_skips_empty_views(self, any_backend):
        backend, base = any_backend
        p = _path(base, "v0.bin")
        with backend.open(p, "w+b") as f:
            frags = [(0, b""), (0, b"xy"), (2, memoryview(b"")), (2, b"z")]
            assert f.scatter_write(frags) == 3
            assert f.pread(0, 3) == b"xyz"
            assert f.scatter_write([]) == 0

    def test_preadv_scatter_read(self, any_backend):
        backend, base = any_backend
        p = _path(base, "r.bin")
        with backend.open(p, "w+b") as f:
            f.pwrite(0, b"0123456789")
            assert f.gather_read([(1, 3), (4, 0), (4, 4)]) == [b"123", b"", b"4567"]

    def test_preadv_eof_trims_then_empties(self, any_backend):
        backend, base = any_backend
        p = _path(base, "re.bin")
        with backend.open(p, "w+b") as f:
            f.pwrite(0, b"abcdef")
            assert f.gather_read([(2, 3), (5, 3), (8, 3)]) == [b"cde", b"f", b""]

    def test_scatter_write_disjoint_fragments(self, any_backend):
        backend, base = any_backend
        p = _path(base, "sc.bin")
        with backend.open(p, "w+b") as f:
            # Out of order, with a gap (hole) between 10 and 20.
            n = f.scatter_write([(20, b"TAIL"), (0, b"HEAD"), (4, bytearray(b"++"))])
            assert n == 10
            assert f.pread(0, 6) == b"HEAD++"
            assert f.pread(20, 4) == b"TAIL"
            assert f.pread(6, 14) == b"\0" * 14
        assert backend.file_size(p) == 24

    def test_scatter_write_merges_contiguous_runs(self, any_backend):
        backend, base = any_backend
        p = _path(base, "sm.bin")
        with backend.open(p, "w+b") as f:
            f.scatter_write([(0, b"ab"), (2, b"cd"), (4, b"ef"), (10, b"gh")])
            assert f.pread(0, 6) == b"abcdef"
            assert f.pread(10, 2) == b"gh"

    def test_gather_read_request_order(self, any_backend):
        backend, base = any_backend
        p = _path(base, "g.bin")
        with backend.open(p, "w+b") as f:
            f.pwrite(0, b"0123456789")
            # Out-of-order, partly contiguous requests come back in order.
            assert f.gather_read([(6, 2), (0, 3), (3, 3)]) == [b"67", b"012", b"345"]
            assert f.gather_read([]) == []

    def test_roundtrip_scatter_gather(self, any_backend):
        backend, base = any_backend
        p = _path(base, "rt.bin")
        frags = [(i * 7, bytes([65 + i]) * 5) for i in range(8)]
        with backend.open(p, "w+b") as f:
            f.scatter_write(frags)
            got = f.gather_read([(off, len(d)) for off, d in frags])
        assert got == [d for _, d in frags]


class TestLocalVectoredNative:
    def test_pwritev_beyond_iov_max(self, local_backend, tmp_path):
        """More fragments than one writev can carry still land correctly."""
        p = str(tmp_path / "iov.bin")
        frags = [(i, bytes([i % 256])) for i in range(1500)]  # one contiguous run
        with local_backend.open(p, "w+b") as f:
            assert f.scatter_write(frags) == 1500
            data = f.pread(0, 1500)
        assert data == bytes(i % 256 for i in range(1500))

    def test_preadv_beyond_iov_max(self, local_backend, tmp_path):
        p = str(tmp_path / "iov2.bin")
        payload = bytes(range(256)) * 8
        with local_backend.open(p, "w+b") as f:
            f.pwrite(0, payload)
            pieces = f.gather_read([(i, 1) for i in range(2100)])
        assert b"".join(pieces) == payload
        assert pieces[2047] == payload[-1:]
        assert pieces[2048] == b""  # past EOF

    def test_unbuffered_handles_stay_coherent(self, local_backend, tmp_path):
        """Unbuffered handles: one handle's writes are visible to another at once."""
        p = str(tmp_path / "coh.bin")
        with local_backend.open(p, "w+b") as f, local_backend.open(p, "r+b") as g:
            f.pwrite(0, b"stream")
            g.pwrite(6, b"+fd")
            assert f.pread(0, 9) == g.pread(0, 9) == b"stream+fd"
