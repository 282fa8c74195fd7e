"""The vectored data plane's two promises, proven with the counting backend.

1. A chunk-spanning ``fwrite`` of N fragments crosses the backend
   boundary exactly once (one ``scatter_write``), not N times.
2. A ``memoryview``/buffer payload reaches the backend with zero
   intermediate ``bytes()`` materializations — every fragment the store
   receives still lives inside the caller's buffer.
3. In collective mode a view of an immutable ``bytes`` is kept, not
   copied, from the sender's tape through ``gatherv`` to the store
   (``repro.buffers.keep``); only what the library builds is copied.
"""

import gc
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.backends.instrument import CountingBackend
from repro.backends.simfs_backend import SimBackend
from repro.fs.simfs import SimFS
from repro.simmpi import run_spmd
from repro.simmpi.comm import make_world
from repro.sion import paropen, serial
from repro.sion.buffering import CoalescingWriter
from repro.sion.constants import SHADOW_HEADER_SIZE

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

    def test_shadow_headers_follow_their_data_in_a_second_call(self):
        """With shadow on, completed-block headers follow the data call.

        A header in the data's own call could land without the bytes it
        counts when that call is interrupted, so the headers come second.
        """
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
        data, headers = backend.rows[-2:]
        f.parclose()
        assert after["data_write_calls"] - before["data_write_calls"] == 2
        assert after["fragments_written"] - before["fragments_written"] == 4 + 3
        assert [len(data.sizes), len(headers.sizes)] == [4, 3]
        assert set(headers.sizes) == {SHADOW_HEADER_SIZE}
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


class TestCollectivePath:
    """A checkpoint write: 4096 tasks write 1 KiB views of one ``bytes``
    through collectors of 64 on the bulk engine, with shadow headers and
    buddy replicas over 4 physical files."""

    NTASKS, PER, NFILES = 4096, 1024, 4

    def _blob(self) -> bytes:
        return bytes(range(256)) * (self.NTASKS * self.PER // 256)

    def _write(self, backend, blob: bytes) -> None:
        view, per = memoryview(blob), self.PER

        def write(comm):
            f = paropen(
                "/ck.sion", "w", comm, chunksize=per, fsblksize=4096, nfiles=self.NFILES,
                collectsize=64, shadow=True, buddy=True, backend=backend,
            )
            f.fwrite(view[comm.rank * per : (comm.rank + 1) * per])
            f.parclose()

        run_spmd(self.NTASKS, write, engine="bulk")

    def test_the_store_keeps_views_of_the_callers_bytes(self):
        backend, blob = SimBackend(SimFS(blocksize_override=BLK)), self._blob()
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            self._write(backend, blob)
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        with serial.open("/ck.sion", "r", backend=backend) as sf:
            for r in (0, 2049, self.NTASKS - 1):
                assert sf.read_task(r) == blob[r * self.PER : (r + 1) * self.PER]
        # A copy of every payload that the store kept (a tape snapshot or
        # a gatherv deposit) would alone be the blob again; a view object
        # per stored piece (primary and replica) would be 0.7 of it.
        payload = len(blob)
        assert retained < payload / 2, retained / payload

    def test_only_library_built_fragments_are_copied(self):
        backend, blob = counting_backend(), self._blob()
        backend.track_source(blob)
        self._write(backend, blob)
        snap = backend.snapshot()
        # Primary and buddy replica alike: a data fragment and a shadow
        # header per task, and three metablock writes per physical file.
        library_built = self.NTASKS + 3 * self.NFILES
        assert snap["fragments_written"] == 2 * (self.NTASKS + library_built)
        assert snap["copied_fragments"] == 2 * library_built


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
        from repro.sion.readwrite import PartitionStream, TaskStream

        sim = SimBackend(SimFS(blocksize_override=BLK))
        layout = ChunkLayout(BLK, [CHUNK], 0)
        payload = payload_of(2 * CHUNK)
        with sim.open("/trunc.bin", "w+b") as w:
            w.pwrite(0, payload[: CHUNK + CHUNK // 2])  # half the second chunk
        raw = sim.open("/trunc.bin", "rb")
        stream = PartitionStream([TaskStream(raw, layout, 0, [CHUNK, CHUNK])])
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

    def test_slices_of_one_bytes_flush_uncopied(self):
        """Records that are back-to-back slices of one ``bytes`` flush as
        spans of it: the staging copy is never what the store keeps."""
        backend = counting_backend()
        blob = bytes(payload_of(60 * 200))
        backend.track_source(blob)
        view = memoryview(blob)
        with serial.open(
            "/cs.sion", "w", chunksizes=[BLK], fsblksize=BLK, backend=backend
        ) as f:
            f.seek(0, 0, 0)
            w = CoalescingWriter(f, buffer_size=4 * BLK)
            before = backend.snapshot()
            for o in range(0, len(blob), 200):
                w.write(view[o : o + 200])
            w.close()
            after = backend.snapshot()
        delta = {k: after[k] - before[k] for k in after}
        assert w.flushes == 6
        assert delta["data_write_calls"] == 6
        assert delta["fragments_written"] == 24
        assert delta["copied_fragments"] == 0
        with serial.open("/cs.sion", "r", backend=backend) as f:
            assert f.read_task(0) == blob

    def test_bulk_ranks_leave_no_staging_copy_in_the_store(self):
        """8 bulk ranks stream 1 MiB of 200-byte records each: what stays
        alive after the run is the store's numbers, not a copy per flush."""
        per, record = 1 << 20, 200
        backend = SimBackend(SimFS(blocksize_override=4096))
        blob = bytes(payload_of(256)) * (8 * per // 256)
        view = memoryview(blob)

        def write(comm):
            f = paropen("/cb.sion", "w", comm, chunksize=256 << 10, fsblksize=4096,
                        backend=backend)
            src = view[comm.rank * per : (comm.rank + 1) * per]
            with CoalescingWriter(f, 64 << 10) as w:
                for o in range(0, per, record):
                    w.write(src[o : o + record])
            f.parclose()

        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_spmd(8, write, engine="bulk")
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        with serial.open("/cb.sion", "r", backend=backend) as sf:
            for r in (0, 7):
                assert sf.read_task(r) == blob[r * per : (r + 1) * per]
        assert retained <= 256 << 10, retained

    def test_mutable_record_lands_as_written(self):
        """A ``bytearray`` changed after ``write`` returns keeps what it
        held then, staged or bypassing, between slices of a ``bytes``."""
        backend = counting_backend()
        blob = bytes(payload_of(3 * BLK))
        staged, large = bytearray(b"s" * 100), bytearray(b"L" * 2 * BLK)
        with serial.open(
            "/cm.sion", "w", chunksizes=[BLK], fsblksize=BLK, backend=backend
        ) as f:
            f.seek(0, 0, 0)
            w = CoalescingWriter(f, buffer_size=BLK)
            w.write(memoryview(blob)[:300])
            w.write(staged)
            staged[:] = b"x" * 100
            w.write(memoryview(blob)[400:1200])
            w.write(large)
            large[:] = b"y" * 2 * BLK
            w.close()
        with serial.open("/cm.sion", "r", backend=backend) as f:
            got = f.read_task(0)
        assert got == blob[:300] + b"s" * 100 + blob[400:1200] + b"L" * 2 * BLK


@st.composite
def _records(draw):
    """One ``bytes`` and a record list over it: slices at random cut points,
    some with gaps between them, mixed with foreign ``bytes`` and
    ``bytearray`` contents (given as ``bytes``; each pass makes its own)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blob = rng.bytes(draw(st.integers(1, 2000)))
    out, pos = [], 0
    while pos < len(blob) and len(out) < 60:
        kind = draw(st.sampled_from(["slice", "slice", "gap", "foreign", "mutable"]))
        if kind in ("slice", "gap"):
            pos += draw(st.integers(1, 40)) if kind == "gap" else 0
            end = min(len(blob), pos + draw(st.integers(0, 400)))
            out.append(("slice", memoryview(blob)[pos:end]))
            pos = end
        else:
            out.append((kind, rng.bytes(draw(st.integers(0, 300)))))
    return out


@settings(max_examples=60, deadline=None)
@given(records=_records(), buffer_size=st.integers(1, 256))
def test_coalesced_spans_match_direct_writes(records, buffer_size):
    """Flushing spans of the caller's ``bytes`` (split, gapped, or bypassed)
    stores exactly what writing each record directly stores."""
    backend = SimBackend(SimFS(blocksize_override=BLK))
    for path, coalesce in (("/direct.sion", False), ("/coalesced.sion", True)):
        with serial.open(path, "w", chunksizes=[BLK], fsblksize=BLK, backend=backend) as f:
            f.seek(0, 0, 0)
            w = CoalescingWriter(f, buffer_size=buffer_size) if coalesce else f
            for kind, data in records:
                record = bytearray(data) if kind == "mutable" else data
                w.fwrite(record)
                if kind == "mutable":
                    record[:] = bytes(len(record))  # changed once handed over
            if coalesce:
                w.close()
    with serial.open("/direct.sion", "r", backend=backend) as f:
        direct = f.read_task(0)
    assert direct == b"".join(bytes(data) for _, data in records)
    with serial.open("/coalesced.sion", "r", backend=backend) as f:
        assert f.read_task(0) == direct
