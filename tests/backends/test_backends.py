"""Backend conformance: identical behaviour on real and simulated storage."""

import pytest

from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend


def _path(base_dir, name):
    return f"{base_dir.rstrip('/')}/{name}"


class TestConformance:
    """Runs against both backends via the parametrized fixture."""

    def test_roundtrip(self, any_backend):
        backend, base = any_backend
        p = _path(base, "f.bin")
        with backend.open(p, "wb") as f:
            f.pwrite(0, b"hello world")
        assert backend.exists(p)
        with backend.open(p, "rb") as f:
            assert f.pread(0, 100) == b"hello world"
        assert backend.file_size(p) == 11

    def test_missing_file(self, any_backend):
        backend, base = any_backend
        assert not backend.exists(_path(base, "ghost"))
        with pytest.raises(Exception):
            backend.open(_path(base, "ghost"), "rb")

    def test_seek_tell_patch(self, any_backend):
        backend, base = any_backend
        p = _path(base, "s.bin")
        with backend.open(p, "w+b") as f:
            f.pwrite(0, b"0123456789")
            f.pwrite(4, b"XY")
            assert f.pread(0, 10) == b"0123XY6789"

    def test_write_zeros_extends(self, any_backend):
        backend, base = any_backend
        p = _path(base, "z.bin")
        with backend.open(p, "wb") as f:
            f.pwrite(0, b"a")
            f.pwrite(101, b"b")  # the gap past EOF reads as zeros
        assert backend.file_size(p) == 102
        with backend.open(p, "rb") as f:
            data = f.pread(0, 102)
        assert data[0:1] == b"a" and data[-1:] == b"b"
        assert data[1:-1] == b"\0" * 100

    def test_write_zeros_alone_sets_size(self, any_backend):
        backend, base = any_backend
        p = _path(base, "hole.bin")
        with backend.open(p, "wb") as f:
            f.pwrite(4095, b"\0")
        assert backend.file_size(p) == 4096

    def test_truncate(self, any_backend):
        backend, base = any_backend
        p = _path(base, "t.bin")
        with backend.open(p, "w+b") as f:
            f.pwrite(0, b"abcdef")
        with backend.open(p, "wb") as f:  # reopening for writing truncates
            f.pwrite(0, b"abc")
        assert backend.file_size(p) == 3

    def test_unlink(self, any_backend):
        backend, base = any_backend
        p = _path(base, "u.bin")
        with backend.open(p, "wb") as f:
            f.pwrite(0, b"x")
        backend.unlink(p)
        assert not backend.exists(p)

    def test_stat_blocksize_positive(self, any_backend):
        backend, base = any_backend
        p = _path(base, "blk.bin")
        with backend.open(p, "wb") as f:
            f.pwrite(0, b"x")
        assert backend.stat_blocksize(p) > 0
        # Probing a not-yet-existing path must also work (used at create).
        assert backend.stat_blocksize(_path(base, "new.bin")) > 0

    def test_two_handles_same_file(self, any_backend):
        """The parallel layer opens one handle per task on a shared file."""
        backend, base = any_backend
        p = _path(base, "multi.bin")
        with backend.open(p, "wb") as f:
            f.pwrite(199, b"\0")
        h1 = backend.open(p, "r+b")
        h2 = backend.open(p, "r+b")
        h1.pwrite(0, b"AAA")
        h2.pwrite(100, b"BBB")
        h1.close()
        h2.close()
        with backend.open(p, "rb") as f:
            data = f.pread(0, 200)
        assert data[0:3] == b"AAA" and data[100:103] == b"BBB"


class TestLocalSpecific:
    def test_blocksize_override(self, tmp_path):
        b = LocalBackend(blocksize_override=4096)
        assert b.stat_blocksize(str(tmp_path / "x")) == 4096
        with pytest.raises(ValueError):
            LocalBackend(blocksize_override=0)

    def test_statvfs_fallback(self, tmp_path):
        b = LocalBackend()
        assert b.stat_blocksize(str(tmp_path)) > 0

    def test_allocated_size_reported(self, tmp_path):
        b = LocalBackend()
        p = str(tmp_path / "f")
        with b.open(p, "wb") as f:
            f.pwrite(0, b"x" * 8192)
        assert b.allocated_size(p) >= 0


class TestSimSpecific:
    def test_allocated_size_tracks_sparseness(self):
        backend = SimBackend()
        with backend.open("/f", "wb") as f:
            f.pwrite(10**6, b"tail")
        assert backend.file_size("/f") == 10**6 + 4
        assert backend.allocated_size("/f") == 4

    def test_default_constructor_creates_fs(self):
        backend = SimBackend()
        with backend.open("/x", "wb") as f:
            f.pwrite(0, b"1")
        assert backend.fs.exists("/x")
