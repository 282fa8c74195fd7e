"""In-memory simulated file system: sparse files, namespace, op counts."""

import sys
import threading

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
from repro.workloads.filecreate import OpenTrace, open_trace_time


class TestSparseFile:
    def test_write_read_roundtrip(self):
        f = SparseFile()
        f.writev(0, (b"hello",))
        assert f.read(0, 5) == b"hello"
        assert f.size == 5

    def test_holes_read_as_zeros(self):
        f = SparseFile()
        f.writev(10, (b"x",))
        assert f.read(0, 11) == b"\0" * 10 + b"x"
        assert f.allocated_bytes == 1

    def test_overlapping_writes_merge(self):
        f = SparseFile()
        f.writev(0, (b"aaaa",))
        f.writev(2, (b"bbbb",))
        assert f.read(0, 6) == b"aabbbb"
        assert len(f.extents()) == 1

    def test_adjacent_extents_coalesce(self):
        f = SparseFile()
        f.writev(0, (b"aa",))
        f.writev(4, (b"cc",))
        f.writev(2, (b"bb",))
        assert f.extents() == [(0, 6)]

    def test_write_zeros_leaves_hole(self):
        """Zeros past EOF are a hole: a write beyond the end allocates only itself."""
        f = SparseFile()
        f.writev(1000, (b"x",))
        assert f.size == 1001
        assert f.allocated_bytes == 1
        assert f.read(500, 4) == b"\0\0\0\0"

    def test_read_past_end_truncated(self):
        f = SparseFile()
        f.writev(0, (b"ab",))
        assert f.read(1, 100) == b"b"
        assert f.read(5, 10) == b""

    def test_negative_offsets_rejected(self):
        f = SparseFile()
        with pytest.raises(ValueError):
            f.writev(-1, (b"x",))
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
            f.writev(off, (data,))
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
            f.pwritev(0, [b"data"])
        with fs.open("/f.bin", "rb") as f:
            assert f.preadv(0, [100]) == [b"data"]

    def test_open_missing_read_raises(self):
        fs = SimFS()
        with pytest.raises(FileNotFoundSimError):
            fs.open("/nope", "rb")

    def test_open_truncates_on_w(self):
        fs = SimFS()
        with fs.open("/f", "wb") as f:
            f.pwritev(0, [b"long content"])
        with fs.open("/f", "wb") as f:
            f.pwritev(0, [b"x"])
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
            f.pwritev(0, [b"x"])
        fs.unlink("/f")
        assert not fs.exists("/f")
        with pytest.raises(FileNotFoundSimError):
            fs.unlink("/f")

    def test_unlink_directory_rejected(self):
        fs = SimFS()
        fs.mkdir("/d")
        with pytest.raises(InvalidOperationError):
            fs.unlink("/d")

    def test_file_component_used_as_dir_raises(self):
        fs = SimFS()
        with fs.open("/f", "wb") as f:
            f.pwritev(0, [b"x"])
        with pytest.raises(NotADirectorySimError):
            fs.open("/f/child", "wb")

    def test_stat_blocksize_default(self):
        fs = SimFS()
        with fs.open("/f", "wb") as f:
            f.pwritev(0, [b"x"])
        assert fs.stat("/f").st_blksize == 2 * (1 << 20)
        assert SimFS(blocksize_override=512).stat("/").st_blksize == 512

    @pytest.mark.parametrize("call", ["stat", "extents_of"])
    def test_stat_and_extents_wait_for_the_store_lock(self, call):
        """A write updates size, allocation and version in separate steps
        under the store lock; ``stat`` and ``extents_of`` (their lookups
        too) must wait for it, or they could pair a new version with an
        old size."""
        fs = SimFS()
        with fs.open("/f", "wb") as f:
            f.pwritev(0, [b"xy"])
        got = []
        with fs._lock:
            t = threading.Thread(target=lambda: got.append(getattr(fs, call)("/f")))
            t.start()
            t.join(timeout=0.2)
            assert t.is_alive() and not got, f"{call} ran while the lock was held"
        t.join(timeout=10)
        assert not t.is_alive()
        assert got == [fs.stat("/f") if call == "stat" else (2, [(0, 2)])]

    def test_stat_sees_a_racing_write_whole_or_not_at_all(self):
        """A write lands between ``stat``'s read of the size and its read
        of the version, if the store lock lets it: the stat must still
        pair the size with the version of the same state."""
        fs = SimFS()
        fh = fs.open("/f", "w+b")
        fh.pwritev(0, [b"xy"])
        data, old = fh._data, fs.stat("/f")
        writer = threading.Thread(target=fh.pwritev, args=(2, [b"z"]))

        class WriteAfterSizeIsRead:
            def __getattr__(self, name):
                return getattr(data, name)

            @property
            def size(self):
                size = data.size
                writer.start()
                writer.join(timeout=0.2)  # blocked while stat holds the lock
                return size

        fh._inode.data = WriteAfterSizeIsRead()
        st = fs.stat("/f")
        writer.join(timeout=10)
        fh._inode.data = data
        assert not writer.is_alive()
        assert (st.st_size, st.version) == (old.st_size, old.version)
        assert fs.stat("/f").st_size == 3


class TestHandles:
    def test_seek_negative_rejected(self):
        """A negative offset is refused by every positioned call."""
        fs = SimFS()
        f = fs.open("/f", "w+b")
        with pytest.raises(ValueError):
            f.pwritev(-1, [b"x"])
        with pytest.raises(ValueError):
            f.preadv(-1, [1])

    def test_closed_handle_rejects_ops(self):
        fs = SimFS()
        f = fs.open("/f", "wb")
        f.close()
        assert f.closed
        with pytest.raises(InvalidOperationError):
            f.pwritev(0, [b"x"])

    def test_closed_handle_pins_no_extents(self):
        """A closed handle somebody still holds lets the file's data go
        (once the name is gone too), and every operation on it keeps
        raising the closed-handle error."""
        fs = SimFS()
        f = fs.open("/f", "w+b")
        f.pwritev(0, [b"x" * 4096])
        data = f._inode.data
        f.close()
        fs.unlink("/f")
        assert sys.getrefcount(data) == 2  # ``data`` itself and the call's argument
        for op in (
            lambda: f.pwritev(0, [b"x"]), lambda: f.preadv(0, [1]), f.flush,
        ):
            with pytest.raises(InvalidOperationError, match="handle is closed"):
                op()
        f.close()  # still idempotent

    def test_read_on_writeonly_rejected(self):
        fs = SimFS()
        f = fs.open("/f", "wb")
        with pytest.raises(InvalidOperationError):
            f.preadv(0, [1])

    def test_write_on_readonly_rejected(self):
        fs = SimFS()
        with fs.open("/f", "wb") as f:
            f.pwritev(0, [b"x"])
        f = fs.open("/f", "rb")
        with pytest.raises(InvalidOperationError):
            f.pwritev(0, [b"y"])

    def test_pread_pwrite_keep_position(self):
        """A pwrite inside the file overlays in place: size and neighbours stay."""
        fs = SimFS()
        f = fs.open("/f", "w+b")
        f.pwritev(0, [b"abcdef"])
        f.pwritev(3, [b"XY"])
        assert f.preadv(0, [6]) == [b"abcXYf"]
        assert fs.stat("/f").st_size == 6

    def test_sparse_write_zeros_via_handle(self):
        fs = SimFS()
        f = fs.open("/f", "wb")
        f.pwritev(10**6, [b"end"])
        f.close()
        st = fs.stat("/f")
        assert st.st_size == 10**6 + 3
        assert st.allocated_bytes == 3


class TestClock:
    """SimFS keeps no clock: it counts ops, and the figures price the counts."""

    def test_metadata_ops_are_counted(self):
        fs = SimFS()
        with fs.open("/f", "wb") as f:
            f.pwritev(0, [b"x" * 1000])
        assert fs.op_counts["create"] == 1
        assert fs.op_counts["close"] == 1
        assert fs.op_counts["write_bytes"] == 1000

    def test_no_profile_means_free_metadata(self):
        fs = SimFS()
        with fs.open("/f", "wb") as f:
            f.pwritev(0, [b"x"])
        assert fs.op_counts["create"] == 1
        assert not hasattr(fs, "clock")

    def test_data_time_scales_with_bytes(self):
        """Counted bytes are what the pricing charges for."""
        traces = []
        for nbytes in (10**6, 10**7):
            fs = SimFS()
            with fs.open("/a", "wb") as f:
                f.pwritev(0, [b"x" * nbytes])
            assert fs.op_counts["write_bytes"] == nbytes
            traces.append(OpenTrace(1, "w", 1, 1, 0, fs.op_counts["write_bytes"], 0, ()))
        small, large = (open_trace_time(jugene(), t) for t in traces)
        assert large > small

    def test_creating_n_files_costs_n_creates(self):
        fs = SimFS()
        for i in range(10):
            fs.open(f"/f{i}", "wb").close()
        assert fs.op_counts["create"] == 10
