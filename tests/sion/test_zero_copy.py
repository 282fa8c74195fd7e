"""The vectored data plane's two promises, proven with the counting backend.

1. A chunk-spanning ``fwrite`` of N fragments crosses the backend
   boundary exactly once (one ``scatter_write``), not N times.
2. A ``memoryview``/buffer payload reaches the backend with zero
   intermediate ``bytes()`` materializations — every fragment the store
   receives still lives inside the caller's buffer.
"""

import numpy as np

from repro.backends.instrument import CountingBackend
from repro.backends.simfs_backend import SimBackend
from repro.fs.simfs import SimFS
from repro.simmpi.comm import make_world
from repro.sion import paropen, serial
from repro.sion.buffering import CoalescingWriter

BLK = 512
CHUNK = 2 * BLK


def counting_backend():
    return CountingBackend(SimBackend(SimFS(blocksize_override=BLK)))


def payload_of(n):
    return bytearray((i * 7 + 3) % 256 for i in range(n))


class TestSerialPath:
    def test_spanning_fwrite_is_one_backend_call(self):
        backend = counting_backend()
        payload = payload_of(CHUNK * 4 + 100)  # 5 fragments
        with serial.open(
            "/s.sion", "w", chunksizes=[CHUNK], fsblksize=BLK, backend=backend
        ) as f:
            f.seek(0, 0, 0)
            backend.track_source(payload)
            before = backend.snapshot()
            f.fwrite(memoryview(payload))
            after = backend.snapshot()
        assert after["data_write_calls"] - before["data_write_calls"] == 1
        assert after["fragments_written"] - before["fragments_written"] == 5
        assert after["copied_fragments"] - before["copied_fragments"] == 0
        assert after["seeks"] - before["seeks"] == 0
        with serial.open("/s.sion", "r", backend=backend) as f:
            assert f.read_task(0) == bytes(payload)

    def test_ansi_write_is_one_positioned_call(self):
        backend = counting_backend()
        payload = payload_of(CHUNK // 2)
        with serial.open(
            "/a.sion", "w", chunksizes=[CHUNK], fsblksize=BLK, backend=backend
        ) as f:
            f.seek(0, 0, 0)
            backend.track_source(payload)
            before = backend.snapshot()
            f.write(payload)  # plain bytearray payload: still zero-copy
            after = backend.snapshot()
        assert after["data_write_calls"] - before["data_write_calls"] == 1
        assert after["copied_fragments"] - before["copied_fragments"] == 0
        assert after["seeks"] - before["seeks"] == 0

    def test_spanning_fread_is_one_backend_call(self):
        backend = counting_backend()
        payload = payload_of(CHUNK * 3 + 17)
        with serial.open(
            "/r.sion", "w", chunksizes=[CHUNK], fsblksize=BLK, backend=backend
        ) as f:
            f.seek(0, 0, 0)
            f.fwrite(payload)
        with serial.open("/r.sion", "r", backend=backend) as f:
            f.seek(0, 0, 0)
            before = backend.snapshot()
            data = f.fread(len(payload))
            after = backend.snapshot()
        assert data == bytes(payload)
        assert after["data_read_calls"] - before["data_read_calls"] == 1
        assert after["seeks"] - before["seeks"] == 0

    def test_ndarray_payload_is_zero_copy(self):
        backend = counting_backend()
        arr = np.arange(CHUNK * 2 + 64, dtype=np.uint8)
        with serial.open(
            "/n.sion", "w", chunksizes=[CHUNK], fsblksize=BLK, backend=backend
        ) as f:
            f.seek(0, 0, 0)
            backend.track_source(arr)
            before = backend.snapshot()
            f.fwrite(arr)
            after = backend.snapshot()
        assert after["data_write_calls"] - before["data_write_calls"] == 1
        assert after["copied_fragments"] - before["copied_fragments"] == 0
        with serial.open("/n.sion", "r", backend=backend) as f:
            assert f.read_task(0) == arr.tobytes()


class TestParallelPath:
    def test_taskstream_fwrite_is_one_backend_call(self):
        backend = counting_backend()
        (comm,) = make_world(1)
        payload = payload_of(CHUNK * 3 + 11)
        f = paropen(
            "/p.sion", "w", comm, chunksize=CHUNK, fsblksize=BLK, backend=backend
        )
        backend.track_source(payload)
        before = backend.snapshot()
        f.fwrite(memoryview(payload))
        after = backend.snapshot()
        f.parclose()
        assert after["data_write_calls"] - before["data_write_calls"] == 1
        assert after["fragments_written"] - before["fragments_written"] == 4
        assert after["copied_fragments"] - before["copied_fragments"] == 0
        assert after["seeks"] - before["seeks"] == 0

    def test_shadow_headers_join_the_fragment_list(self):
        """With shadow on, completed-block headers ride the same call."""
        backend = counting_backend()
        (comm,) = make_world(1)
        f = paropen(
            "/sh.sion", "w", comm, chunksize=CHUNK, fsblksize=BLK,
            backend=backend, shadow=True,
        )
        cap = f.chunksize  # capacity net of the shadow header
        payload = payload_of(cap * 3 + 5)  # spans 4 blocks -> 3 headers
        before = backend.snapshot()
        f.fwrite(payload)
        after = backend.snapshot()
        f.parclose()
        assert after["data_write_calls"] - before["data_write_calls"] == 1
        assert after["fragments_written"] - before["fragments_written"] == 4 + 3
        (comm,) = make_world(1)
        g = paropen("/sh.sion", "r", comm, backend=backend)
        assert g.read_all() == bytes(payload)
        g.parclose()

    def test_parallel_read_all_is_one_gather(self):
        backend = counting_backend()
        (comm,) = make_world(1)
        payload = payload_of(CHUNK * 2 + 9)
        f = paropen(
            "/pr.sion", "w", comm, chunksize=CHUNK, fsblksize=BLK, backend=backend
        )
        f.fwrite(payload)
        f.parclose()
        (comm,) = make_world(1)
        g = paropen("/pr.sion", "r", comm, backend=backend)
        before = backend.snapshot()
        data = g.read_all()
        after = backend.snapshot()
        g.parclose()
        assert data == bytes(payload)
        assert after["data_read_calls"] - before["data_read_calls"] == 1

    def test_cleared_sources_end_attribution(self):
        """After clear_sources no fragment is attributed to any payload."""
        backend = counting_backend()
        payload = payload_of(64)
        with backend.open("/t.bin", "w+b") as f:
            backend.track_source(payload)
            f.pwrite(0, memoryview(payload))
            assert backend.snapshot()["tracked_fragments"] == 1
            backend.clear_sources()
            f.pwrite(64, memoryview(payload))
        snap = backend.snapshot()
        assert (snap["tracked_fragments"], snap["fragments_written"]) == (1, 2)


class _FailingWrites:
    """Raw-file decorator whose vectored writes always fail."""

    def __init__(self, inner):
        self._inner = inner

    def scatter_write(self, fragments):
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestFailureConsistency:
    def test_failed_serial_fwrite_records_no_phantom_bytes(self):
        """ENOSPC mid-fwrite: metablock 2 must not claim unwritten data."""
        sim = SimBackend(SimFS(blocksize_override=BLK))
        f = serial.open(
            "/fail.sion", "w", chunksizes=[CHUNK], fsblksize=BLK, backend=sim
        )
        f._files[0].raw = _FailingWrites(f._files[0].raw)
        f.seek(0, 0, 0)
        try:
            f.fwrite(payload_of(CHUNK * 3))
        except OSError:
            pass
        else:  # pragma: no cover - the fake backend always raises
            raise AssertionError("expected the vectored write to fail")
        f.close()  # still writes metablock 2 from what was recorded
        with serial.open("/fail.sion", "r", backend=sim) as g:
            assert g.get_locations().total_bytes(0) == 0

    def test_failed_taskstream_fwrite_keeps_accounting_clean(self):
        backend = counting_backend()
        (comm,) = make_world(1)
        f = paropen(
            "/ft.sion", "w", comm, chunksize=CHUNK, fsblksize=BLK, backend=backend
        )
        ok = payload_of(CHUNK // 2)
        f.fwrite(ok)
        f._raw = _FailingWrites(f._raw)
        try:
            f.fwrite(payload_of(CHUNK * 3))
        except OSError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected the vectored write to fail")
        # The cursor and block accounting still describe only the good write.
        assert f.tell_logical() == len(ok)
        f._raw = f._raw._inner
        f.parclose()
        with serial.open("/ft.sion", "r", backend=backend) as g:
            assert g.read_task(0) == bytes(ok)

    def test_truncated_file_read_is_distinguishable_from_eof(self):
        """A short gather advances the cursor only past real bytes."""
        from repro.sion.layout import ChunkLayout
        from repro.sion.readwrite import TaskStream

        sim = SimBackend(SimFS(blocksize_override=BLK))
        layout = ChunkLayout(BLK, [CHUNK], 0)
        payload = payload_of(2 * CHUNK)
        with sim.open("/trunc.bin", "w+b") as w:
            w.pwrite(0, payload[: CHUNK + CHUNK // 2])  # half the second chunk
        raw = sim.open("/trunc.bin", "rb")
        stream = TaskStream(raw, layout, 0, [CHUNK, CHUNK])
        data = stream.fread(2 * CHUNK)
        assert data == bytes(payload[: CHUNK + CHUNK // 2])
        assert not stream.feof()  # metadata claims more than the file holds
        assert stream.tell_logical() == CHUNK + CHUNK // 2
        raw.close()


class TestCoalescedPath:
    def test_each_flush_is_one_backend_call(self):
        backend = counting_backend()
        with serial.open(
            "/c.sion", "w", chunksizes=[BLK], fsblksize=BLK, backend=backend
        ) as f:
            f.seek(0, 0, 0)
            w = CoalescingWriter(f, buffer_size=4 * BLK)
            before = backend.snapshot()
            for i in range(12):  # 12 x 512 B -> 3 flushes of 4 chunks each
                w.write(payload_of(BLK))
            w.close()
            after = backend.snapshot()
            assert w.flushes == 3
        assert after["data_write_calls"] - before["data_write_calls"] == 3
        assert after["fragments_written"] - before["fragments_written"] == 12

    def test_large_write_bypass_is_zero_copy(self):
        backend = counting_backend()
        with serial.open(
            "/cb.sion", "w", chunksizes=[BLK], fsblksize=BLK, backend=backend
        ) as f:
            f.seek(0, 0, 0)
            w = CoalescingWriter(f, buffer_size=BLK)
            big = payload_of(6 * BLK)
            backend.track_source(big)
            before = backend.snapshot()
            w.write(memoryview(big))
            after = backend.snapshot()
            w.close()
        assert after["data_write_calls"] - before["data_write_calls"] == 1
        assert after["copied_fragments"] - before["copied_fragments"] == 0

    def test_staging_buffer_survives_flush_views(self):
        """Flush hands out views of the bytearray, then resizes it: the
        release discipline must leave no exported buffers behind."""
        backend = counting_backend()
        with serial.open(
            "/cv.sion", "w", chunksizes=[BLK], fsblksize=BLK, backend=backend
        ) as f:
            f.seek(0, 0, 0)
            w = CoalescingWriter(f, buffer_size=BLK)
            for i in range(7):
                w.write(payload_of(200))  # misaligned records straddle flushes
            w.close()
            assert w.pending == 0
        with serial.open("/cv.sion", "r", backend=backend) as f:
            assert f.read_task(0) == bytes(payload_of(200) * 7)
