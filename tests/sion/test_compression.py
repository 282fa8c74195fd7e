"""Transparent zlib compression (paper §6 roadmap feature)."""

import numpy as np
import pytest

from repro.errors import SionUsageError
from repro.sion import open_rank, paropen, serial
from repro.sion.compression import ZlibReader, ZlibWriter
from repro.simmpi import run_spmd
from tests.conftest import TEST_BLKSIZE


def _compressible(rank, n):
    return (f"rank-{rank}-".encode() * (n // 8 + 1))[:n]


class TestCodecs:
    def test_writer_reader_roundtrip(self):
        w = ZlibWriter()
        r = ZlibReader()
        pieces = [b"alpha " * 100, b"beta " * 50, b"gamma"]
        for p in pieces:
            r.feed(w.compress(p))
        r.feed(w.finish())
        r.source_exhausted()
        assert r.take(r.available()) == b"".join(pieces)
        assert r.exhausted

    def test_sync_flush_makes_pieces_immediately_readable(self):
        w = ZlibWriter()
        r = ZlibReader()
        r.feed(w.compress(b"immediately visible"))
        assert r.take(100) == b"immediately visible"

    def test_compression_actually_shrinks(self):
        w = ZlibWriter()
        out = w.compress(b"z" * 100000)
        assert len(out) < 1000

    def test_finish_idempotent_and_final(self):
        w = ZlibWriter()
        w.compress(b"x")
        assert w.finish() != b"" or True
        assert w.finish() == b""
        with pytest.raises(SionUsageError):
            w.compress(b"more")

    def test_invalid_level(self):
        with pytest.raises(SionUsageError):
            ZlibWriter(level=11)

    def test_reader_take_validation(self):
        r = ZlibReader()
        with pytest.raises(SionUsageError):
            r.take(-1)


class TestParallelCompressed:
    def _write(self, path, backend, ntasks, size):
        def task(comm):
            f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, compress=True,
                        backend=backend)
            f.fwrite(_compressible(comm.rank, size))
            f.parclose()

        run_spmd(ntasks, task)

    def test_parallel_roundtrip(self, any_backend):
        backend, base = any_backend
        path = f"{base}/z.sion"
        self._write(path, backend, 3, 5000)

        def rtask(comm):
            f = paropen(path, "r", comm, backend=backend)
            data = f.read_all()
            f.parclose()
            return data

        out = run_spmd(3, rtask)
        assert all(out[r] == _compressible(r, 5000) for r in range(3))

    def test_fread_partial_decompressed(self, any_backend):
        backend, base = any_backend
        path = f"{base}/zpart.sion"
        self._write(path, backend, 2, 3000)

        def rtask(comm):
            f = paropen(path, "r", comm, backend=backend)
            a = f.fread(100)
            b = f.fread(10**6)
            eof = f.feof()
            f.parclose()
            return a, b, eof

        out = run_spmd(2, rtask)
        for r, (a, b, eof) in enumerate(out):
            assert a == _compressible(r, 3000)[:100]
            assert a + b == _compressible(r, 3000)
            assert eof

    def test_on_disk_smaller_than_logical(self, any_backend):
        backend, base = any_backend
        path = f"{base}/zsize.sion"
        self._write(path, backend, 2, 100000)
        with serial.open(path, "r", backend=backend) as sf:
            loc = sf.get_locations()
            assert loc.compressed
            assert loc.total_bytes() < 2 * 100000 / 10

    def test_raw_ops_rejected_under_compression(self, any_backend):
        backend, base = any_backend
        path = f"{base}/zraw.sion"

        def task(comm):
            f = paropen(path, "w", comm, chunksize=256, compress=True, backend=backend)
            caught = []
            for op in (lambda: f.write(b"x"), lambda: f.ensure_free_space(1)):
                try:
                    op()
                except SionUsageError:
                    caught.append(True)
            f.fwrite(b"fine")
            f.parclose()
            return caught

        assert run_spmd(2, task) == [[True, True]] * 2

    def test_serial_read_task_decompresses(self, any_backend):
        backend, base = any_backend
        path = f"{base}/zserial.sion"
        self._write(path, backend, 3, 4000)
        with serial.open(path, "r", backend=backend) as sf:
            for r in range(3):
                assert sf.read_task(r) == _compressible(r, 4000)

    def test_serial_raw_read_rejected(self, any_backend):
        backend, base = any_backend
        path = f"{base}/zserialraw.sion"
        self._write(path, backend, 2, 100)
        with serial.open(path, "r", backend=backend) as sf:
            with pytest.raises(SionUsageError):
                sf.read(10)
            with pytest.raises(SionUsageError):
                sf.fread(10)

    def test_serial_seek_inside_a_deflate_stream_refused(self, sim_backend):
        """A compressed stream has no logical position except its start.

        A cursor placed mid-deflate-stream used to surface as a raw
        ``zlib.error`` on the next ``feof()``; the seek itself now refuses.
        """
        payload = np.random.default_rng(0).bytes(50_000)

        def task(comm):
            f = paropen("/scratch/zseek.sion", "w", comm, chunksize=4096,
                        compress=True, backend=sim_backend)
            f.fwrite(payload)
            f.parclose()

        run_spmd(2, task)
        with serial.open("/scratch/zseek.sion", "r", backend=sim_backend) as sf:
            for block, pos in ((1, 100), (0, 100), (1, 0)):
                with pytest.raises(SionUsageError, match="compressed"):
                    sf.seek(0, block, pos)
            sf.seek(1, 0, 0)
            assert not sf.feof()
            assert sf.read_task(0) == payload

    def test_open_rank_decompresses(self, any_backend):
        backend, base = any_backend
        path = f"{base}/zrank.sion"
        self._write(path, backend, 3, 2500)
        with open_rank(path, 2, backend=backend) as rf:
            assert rf.fread(500) == _compressible(2, 2500)[:500]
            assert rf.read_all() == _compressible(2, 2500)[500:]
        with open_rank(path, 1, backend=backend) as rf:
            with pytest.raises(SionUsageError):
                rf.read(5)

    def test_incompressible_data_still_roundtrips(self, any_backend):
        backend, base = any_backend
        path = f"{base}/zrand.sion"
        import random

        rng = random.Random(7)
        payloads = [bytes(rng.randrange(256) for _ in range(2000)) for _ in range(2)]

        def task(comm):
            f = paropen(path, "w", comm, chunksize=256, compress=True, backend=backend)
            f.fwrite(payloads[comm.rank])
            f.parclose()

        run_spmd(2, task)

        def rtask(comm):
            f = paropen(path, "r", comm, backend=backend)
            out = f.read_all()
            f.parclose()
            return out

        assert run_spmd(2, rtask) == payloads

    def test_empty_compressed_stream(self, any_backend):
        backend, base = any_backend
        path = f"{base}/zempty.sion"

        def task(comm):
            paropen(path, "w", comm, chunksize=64, compress=True, backend=backend).parclose()

        run_spmd(2, task)
        with open_rank(path, 0, backend=backend) as rf:
            assert rf.read_all() == b""
            assert rf.feof()
