"""In-memory simulated file system: sparse files, namespace, clock."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    FileExistsSimError,
    FileNotFoundSimError,
    InvalidOperationError,
    NotADirectorySimError,
)
from repro.fs.simfs import SimFS, SparseFile
from repro.fs.systems import jugene


class TestSparseFile:
    def test_write_read_roundtrip(self):
        f = SparseFile()
        f.write(0, b"hello")
        assert f.read(0, 5) == b"hello"
        assert f.size == 5

    def test_holes_read_as_zeros(self):
        f = SparseFile()
        f.write(10, b"x")
        assert f.read(0, 11) == b"\0" * 10 + b"x"
        assert f.allocated_bytes == 1

    def test_overlapping_writes_merge(self):
        f = SparseFile()
        f.write(0, b"aaaa")
        f.write(2, b"bbbb")
        assert f.read(0, 6) == b"aabbbb"
        assert len(f.extents()) == 1

    def test_adjacent_extents_coalesce(self):
        f = SparseFile()
        f.write(0, b"aa")
        f.write(4, b"cc")
        f.write(2, b"bb")
        assert f.extents() == [(0, 6)]

    def test_write_zeros_leaves_hole(self):
        """Zeros past EOF are a hole: a write beyond the end allocates only itself."""
        f = SparseFile()
        f.write(1000, b"x")
        assert f.size == 1001
        assert f.allocated_bytes == 1
        assert f.read(500, 4) == b"\0\0\0\0"

    def test_read_past_end_truncated(self):
        f = SparseFile()
        f.write(0, b"ab")
        assert f.read(1, 100) == b"b"
        assert f.read(5, 10) == b""

    def test_negative_offsets_rejected(self):
        f = SparseFile()
        with pytest.raises(ValueError):
            f.write(-1, b"x")
        with pytest.raises(ValueError):
            f.read(-1, 1)

    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 60)),
            max_size=25,
        )
    )
    def test_matches_bytearray_reference(self, ops):
        """Sparse file behaves exactly like a flat zero-filled buffer."""
        f = SparseFile()
        ref = bytearray()

        def grow(n):
            if len(ref) < n:
                ref.extend(b"\0" * (n - len(ref)))

        for off, ln in ops:
            data = bytes((off + i) % 251 for i in range(ln))
            f.write(off, data)
            if ln:  # zero-length writes do not extend the file
                grow(off + ln)
                ref[off : off + ln] = data
        assert f.size == len(ref)
        assert f.read(0, len(ref) + 10) == bytes(ref)
        # Extents are disjoint, ascending, and within the file.
        last_end = -1
        for s, ln in f.extents():
            assert s > last_end
            last_end = s + ln
        assert f.allocated_bytes <= max(f.size, 0)


class TestNamespace:
    def test_mkdir_and_listdir(self):
        fs = SimFS()
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        assert fs.listdir("/") == ["a"]
        assert fs.listdir("/a") == ["b"]

    def test_mkdir_parents(self):
        fs = SimFS()
        fs.mkdir("/x/y/z", parents=True)
        assert fs.exists("/x/y/z")

    def test_mkdir_existing_raises(self):
        fs = SimFS()
        fs.mkdir("/a")
        with pytest.raises(FileExistsSimError):
            fs.mkdir("/a")

    def test_mkdir_missing_parent_raises(self):
        fs = SimFS()
        with pytest.raises(FileNotFoundSimError):
            fs.mkdir("/no/such")

    def test_open_create_write_read(self):
        fs = SimFS()
        with fs.open("/f.bin", "wb") as f:
            f.pwrite(0, b"data")
        with fs.open("/f.bin", "rb") as f:
            assert f.pread(0, 100) == b"data"

    def test_open_missing_read_raises(self):
        fs = SimFS()
        with pytest.raises(FileNotFoundSimError):
            fs.open("/nope", "rb")

    def test_open_truncates_on_w(self):
        fs = SimFS()
        with fs.open("/f", "wb") as f:
            f.pwrite(0, b"long content")
        with fs.open("/f", "wb") as f:
            f.pwrite(0, b"x")
        assert fs.stat("/f").st_size == 1

    def test_text_mode_rejected(self):
        fs = SimFS()
        with pytest.raises(InvalidOperationError):
            fs.open("/f", "w")
        with pytest.raises(InvalidOperationError):
            fs.open("/f", "ab")  # no file pointer, so no append mode

    def test_directory_is_not_openable(self):
        fs = SimFS()
        fs.mkdir("/d")
        with pytest.raises(InvalidOperationError):
            fs.open("/d", "rb")

    def test_unlink(self):
        fs = SimFS()
        with fs.open("/f", "wb") as f:
            f.pwrite(0, b"x")
        fs.unlink("/f")
        assert not fs.exists("/f")
        with pytest.raises(FileNotFoundSimError):
            fs.unlink("/f")

    def test_unlink_directory_rejected(self):
        fs = SimFS()
        fs.mkdir("/d")
        with pytest.raises(InvalidOperationError):
            fs.unlink("/d")

    def test_rename(self):
        fs = SimFS()
        with fs.open("/old", "wb") as f:
            f.pwrite(0, b"v")
        fs.mkdir("/sub")
        fs.rename("/old", "/sub/new")
        assert not fs.exists("/old")
        with fs.open("/sub/new", "rb") as f:
            assert f.pread(0, 10) == b"v"

    def test_rename_onto_existing_raises(self):
        fs = SimFS()
        for p in ("/a", "/b"):
            with fs.open(p, "wb") as f:
                f.pwrite(0, b"x")
        with pytest.raises(FileExistsSimError):
            fs.rename("/a", "/b")

    def test_file_component_used_as_dir_raises(self):
        fs = SimFS()
        with fs.open("/f", "wb") as f:
            f.pwrite(0, b"x")
        with pytest.raises(NotADirectorySimError):
            fs.open("/f/child", "wb")

    def test_stat_blocksize_from_profile(self):
        fs = SimFS(profile=jugene())
        with fs.open("/f", "wb") as f:
            f.pwrite(0, b"x")
        assert fs.stat("/f").st_blksize == 2 * (1 << 20)


class TestHandles:
    def test_seek_negative_rejected(self):
        """A negative offset is refused by every positioned call."""
        fs = SimFS()
        f = fs.open("/f", "w+b")
        with pytest.raises(ValueError):
            f.pwrite(-1, b"x")
        with pytest.raises(ValueError):
            f.pread(-1, 1)

    def test_closed_handle_rejects_ops(self):
        fs = SimFS()
        f = fs.open("/f", "wb")
        f.close()
        assert f.closed
        with pytest.raises(InvalidOperationError):
            f.pwrite(0, b"x")

    def test_closed_handle_pins_no_extents(self):
        """A closed handle somebody still holds lets the file's data go
        (once the name is gone too), and every operation on it keeps
        raising the closed-handle error."""
        fs = SimFS()
        f = fs.open("/f", "w+b")
        f.pwrite(0, b"x" * 4096)
        data = f._inode.data
        f.close()
        fs.unlink("/f")
        assert sys.getrefcount(data) == 2  # ``data`` itself and the call's argument
        for op in (
            lambda: f.pwrite(0, b"x"), lambda: f.pread(0, 1),
            lambda: f.pwritev(0, [b"x"]), lambda: f.preadv(0, [1]), f.flush,
        ):
            with pytest.raises(InvalidOperationError, match="handle is closed"):
                op()
        f.close()  # still idempotent

    def test_read_on_writeonly_rejected(self):
        fs = SimFS()
        f = fs.open("/f", "wb")
        with pytest.raises(InvalidOperationError):
            f.pread(0, 1)

    def test_write_on_readonly_rejected(self):
        fs = SimFS()
        with fs.open("/f", "wb") as f:
            f.pwrite(0, b"x")
        f = fs.open("/f", "rb")
        with pytest.raises(InvalidOperationError):
            f.pwrite(0, b"y")

    def test_pread_pwrite_keep_position(self):
        """A pwrite inside the file overlays in place: size and neighbours stay."""
        fs = SimFS()
        f = fs.open("/f", "w+b")
        f.pwrite(0, b"abcdef")
        f.pwrite(3, b"XY")
        assert f.pread(0, 6) == b"abcXYf"
        assert fs.stat("/f").st_size == 6

    def test_sparse_write_zeros_via_handle(self):
        fs = SimFS()
        f = fs.open("/f", "wb")
        f.pwrite(10**6, b"end")
        f.close()
        st = fs.stat("/f")
        assert st.st_size == 10**6 + 3
        assert st.allocated_bytes == 3


class TestClock:
    def test_metadata_ops_advance_clock(self):
        fs = SimFS(profile=jugene())
        t0 = fs.clock
        with fs.open("/f", "wb") as f:
            f.pwrite(0, b"x" * 1000)
        assert fs.clock > t0
        assert fs.op_counts["create"] == 1
        assert fs.op_counts["write_bytes"] == 1000

    def test_no_profile_means_free_metadata(self):
        fs = SimFS()
        with fs.open("/f", "wb") as f:
            f.pwrite(0, b"x")
        assert fs.clock == 0.0

    def test_data_time_scales_with_bytes(self):
        fs = SimFS(profile=jugene())
        with fs.open("/a", "wb") as f:
            f.pwrite(0, b"x" * 10**6)
        t_small = fs.clock
        fs2 = SimFS(profile=jugene())
        with fs2.open("/a", "wb") as f:
            f.pwrite(0, b"x" * 10**7)
        assert fs2.clock > t_small

    def test_creating_n_files_costs_n_creates(self):
        fs = SimFS(profile=jugene())
        for i in range(10):
            fs.open(f"/f{i}", "wb").close()
        assert fs.op_counts["create"] == 10
