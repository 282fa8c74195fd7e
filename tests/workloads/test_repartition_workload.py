"""The restart/analysis repartition workload: the model, and the
real-library write/read cycle that the ``repartition`` suite runs."""

import pytest

from repro.backends.simfs_backend import SimBackend
from repro.bench.scaffold import payload, read_cycle, write_cycle
from repro.errors import ReproError, SpmdWorkerError
from repro.fs.simfs import SimFS
from repro.fs.systems import get_system
from repro.workloads.repartition import run_restart_analysis, sweep_reader_counts

GB = 10**9

#: 200-byte payloads over 128-byte chunks in 512-byte blocks.
NBYTES = 200
GEOMETRY = {"chunksize": 128, "fsblksize": 512}


def _backend(blk=512):
    return SimBackend(SimFS(blocksize_override=blk))


class TestModel:
    def test_cycle_prices_write_and_read(self):
        profile = get_system("jugene")
        res = run_restart_analysis(profile, 4096, 128, 10 * GB / 4096)
        assert res.write.time_s > 0 and res.read.time_s > 0
        assert res.cycle_time_s == res.write.time_s + res.read.time_s
        assert res.nwriters // res.nreaders == 32
        # Both phases move the same total data.
        assert res.write.total_mb == pytest.approx(res.read.total_mb)

    def test_fewer_readers_cannot_read_faster_than_more(self):
        """Shrinking the analysis world sheds aggregate client bandwidth."""
        profile = get_system("jugene")
        sweep = sweep_reader_counts(profile, 4096, [64, 512, 4096], 10 * GB / 4096)
        times = [p.read.time_s for p in sweep]
        assert times[0] >= times[1] >= times[2]

    def test_rejects_empty_worlds(self):
        profile = get_system("jugene")
        with pytest.raises(ReproError):
            run_restart_analysis(profile, 0, 4, 1.0)
        with pytest.raises(ReproError):
            run_restart_analysis(profile, 4, 0, 1.0)


class TestDriver:
    """The real-library write-n / read-m cycle: the scaffold pair the
    ``repartition`` suite runs, each reader checking its slice in-rank."""

    def test_payload_schedule(self):
        for rank, n in ((0, 0), (1, 200), (9, 256), (4095, 1000)):
            assert payload(rank, n) == bytes((rank * 31 + i) % 256 for i in range(n))

    @pytest.mark.parametrize("engine", ["threads", "bulk"])
    def test_roundtrip_verifies_bytes(self, engine):
        backend = _backend()
        path = "/w/r.sion"
        write_cycle(backend, 8, engine, path=path, payload_bytes=NBYTES, nfiles=2, **GEOMETRY)
        _, reader_bytes = read_cycle(
            backend, 8, 3, engine, path=path, payload_bytes=NBYTES, partitioned=True
        )
        assert reader_bytes == [600, 600, 400]

    def test_roundtrip_with_aggregation_on_both_sides(self):
        backend = _backend()
        path = "/w/c.sion"
        write_cycle(
            backend, 8, "threads", path=path, payload_bytes=NBYTES, collectors=2, **GEOMETRY
        )
        _, reader_bytes = read_cycle(
            backend, 8, 4, "threads", path=path, payload_bytes=NBYTES,
            partitioned=True, collectsize=2,
        )
        assert reader_bytes == [400] * 4

    def test_divergence_is_loud(self):
        backend = _backend()
        path = "/w/d.sion"
        write_cycle(backend, 4, "threads", path=path, payload_bytes=NBYTES, **GEOMETRY)
        # Corrupt one payload byte inside task 0's chunk, then re-read.
        with backend.open(path, "r+b") as f:
            f.pwrite(512, b"\xff")  # first data byte (start_of_data = 512)
        with pytest.raises(SpmdWorkerError, match="reader 0/2 diverged"):
            read_cycle(
                backend, 4, 2, "threads", path=path, payload_bytes=NBYTES, partitioned=True
            )
