"""Re-partitioned reads: m readers over an n-writer multifile.

The container promise of the paper: metadata lives in the file, not in
the job, so *any* number of consumers can come back later.  These tests
pin the byte-level contract — concatenating the m readers' logical
streams in reader order reproduces the n writer streams in writer order,
for every divisor-and-ragged m in 1..n (m=1 is the serial scan, m=n the
matched-world read), across engines x mappings x nfiles, in direct and
collective-prefetch mode, with compression and shadow headers riding
along.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.simfs_backend import SimBackend
from repro.errors import SionUsageError
from repro.fs.simfs import SimFS
from repro.sion import paropen, serial
from repro.sion.mapping import ReadPartition
from repro.simmpi import run_spmd
from tests.conftest import TEST_BLKSIZE


def _payload(rank: int, n: int) -> bytes:
    return bytes((rank * 31 + i) % 256 for i in range(n))


def _backend():
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    fs.mkdir("/s")
    return SimBackend(fs)


def _write(backend, ntasks, sizes, *, chunksize=128, nfiles=1,
           mapping="blocked", engine="threads", path="/s/m.sion", **kw):
    def task(comm):
        f = paropen(path, "w", comm, chunksize=chunksize, nfiles=nfiles,
                    mapping=mapping, backend=backend, **kw)
        f.fwrite(_payload(comm.rank, sizes[comm.rank]))
        f.parclose()

    run_spmd(ntasks, task, engine=engine)


def _read_partitioned(backend, nreaders, *, engine="threads",
                      path="/s/m.sion", collectsize=None):
    def task(comm):
        f = paropen(path, "r", comm, backend=backend, partitioned=True,
                    collectsize=collectsize)
        data = f.read_all()
        assert f.feof()
        f.parclose()
        return data

    return run_spmd(nreaders, task, engine=engine)


# ---------------------------------------------------------------------------
# ReadPartition arithmetic.


def test_balanced_partition_is_contiguous_and_complete():
    p = ReadPartition.balanced(10, 3)
    assert p.counts == (4, 3, 3)
    assert p.starts == (0, 4, 7)
    covered = [w for r in range(3) for w in p.writers_of(r)]
    assert covered == list(range(10))
    for w in range(10):
        assert w in p.writers_of(p.reader_of(w))


def test_partition_more_readers_than_writers_leaves_empty_slices():
    p = ReadPartition.balanced(2, 5)
    assert p.counts == (1, 1, 0, 0, 0)
    assert list(p.writers_of(4)) == []
    assert p.reader_of(1) == 1


def test_partition_rejects_nonpositive_shapes():
    with pytest.raises(SionUsageError):
        ReadPartition.balanced(0, 1)
    with pytest.raises(SionUsageError):
        ReadPartition.balanced(4, 0)
    with pytest.raises(SionUsageError):
        ReadPartition.balanced(4, 2).writers_of(2)
    with pytest.raises(SionUsageError):
        ReadPartition.balanced(4, 2).reader_of(4)


# ---------------------------------------------------------------------------
# The full small-world matrix: engines x mappings x nfiles x every m.


@pytest.mark.parametrize("engine", ["threads", "bulk"])
@pytest.mark.parametrize("mapping,nfiles", [
    ("blocked", 1), ("blocked", 2), ("roundrobin", 3),
])
def test_every_reader_count_roundtrips(engine, mapping, nfiles):
    backend = _backend()
    n = 6
    sizes = [100 + 37 * r for r in range(n)]
    _write(backend, n, sizes, nfiles=nfiles, mapping=mapping, engine=engine)
    expected = b"".join(_payload(r, sizes[r]) for r in range(n))
    for m in list(range(1, n + 1)) + [n + 2]:  # divisors, ragged, m > n
        out = _read_partitioned(backend, m, engine=engine)
        assert b"".join(out) == expected, (engine, mapping, nfiles, m)
        # Each reader's slice is exactly its writers' concatenation.
        part = ReadPartition.balanced(n, m)
        for r in range(m):
            exp = b"".join(_payload(w, sizes[w]) for w in part.writers_of(r))
            assert out[r] == exp


def test_m_equals_one_matches_serial_scan():
    backend = _backend()
    n = 5
    sizes = [200 + 11 * r for r in range(n)]
    _write(backend, n, sizes, nfiles=2)
    [single] = _read_partitioned(backend, 1)
    with serial.open("/s/m.sion", "r", backend=backend) as sf:
        serial_concat = b"".join(sf.read_task(r) for r in range(n))
    assert single == serial_concat


def test_m_equals_n_matches_matched_world_read():
    backend = _backend()
    n = 4
    sizes = [300] * n
    _write(backend, n, sizes)

    def matched(comm):
        f = paropen("/s/m.sion", "r", comm, backend=backend)
        data = f.read_all()
        f.parclose()
        return data

    assert _read_partitioned(backend, n) == run_spmd(n, matched)


def test_custom_mapping_partitioned_roundtrip():
    backend = _backend()
    n = 5
    sizes = [64 + 9 * r for r in range(n)]
    _write(backend, n, sizes, nfiles=2, mapping=[1, 0, 1, 0, 1])
    expected = b"".join(_payload(r, sizes[r]) for r in range(n))
    for m in (1, 2, 3, 5):
        assert b"".join(_read_partitioned(backend, m)) == expected


# ---------------------------------------------------------------------------
# The hypothesis property: arbitrary write schedules, every reader count.


@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=6),
    chunksize=st.integers(min_value=0, max_value=600),
    nfiles=st.integers(min_value=1, max_value=3),
    mapping_kind=st.sampled_from(["blocked", "roundrobin"]),
    engine=st.sampled_from(["threads", "bulk"]),
)
def test_roundtrip_property_every_reader_count(
    data, n, chunksize, nfiles, mapping_kind, engine
):
    """Bytes written by n tasks read back by every m in 1..n, exactly."""
    nfiles = min(nfiles, n)
    sizes = [data.draw(st.integers(0, 1500), label=f"size[{r}]") for r in range(n)]
    backend = _backend()
    _write(
        backend, n, sizes, chunksize=chunksize, nfiles=nfiles,
        mapping=mapping_kind, engine=engine,
    )
    for m in range(1, n + 1):
        out = _read_partitioned(backend, m, engine=engine)
        part = ReadPartition.balanced(n, m)
        for r in range(m):
            expected = b"".join(
                _payload(w, sizes[w]) for w in part.writers_of(r)
            )
            assert out[r] == expected, (m, r)


# ---------------------------------------------------------------------------
# Collective-prefetch partitioned reads.


@pytest.mark.parametrize("engine", ["threads", "bulk"])
@pytest.mark.parametrize("collectsize", [1, 2, 4])
def test_collective_prefetch_partitioned_roundtrip(engine, collectsize):
    backend = _backend()
    n = 8
    sizes = [150 + 13 * r for r in range(n)]
    _write(backend, n, sizes, nfiles=2, engine=engine)
    expected = b"".join(_payload(r, sizes[r]) for r in range(n))
    for m in (1, 3, 4, 8):
        out = _read_partitioned(
            backend, m, engine=engine, collectsize=collectsize
        )
        assert b"".join(out) == expected, (engine, collectsize, m)


def test_collective_prefetch_serves_reads_from_memory(sim_backend):
    """After the prefetch wave, senders' freads never touch the store."""
    from repro.backends.instrument import CountingBackend

    backend = CountingBackend(sim_backend)
    n, m = 6, 3
    sizes = [400] * n
    _write(backend, n, sizes, path="/scratch/pf.sion")
    before = backend.snapshot()["data_read_calls"]

    def task(comm):
        f = paropen("/scratch/pf.sion", "r", comm, backend=backend,
                    partitioned=True, collectsize=3)
        out = []
        while not f.feof():
            out.append(f.fread(97))  # many small reads, all memory-served
        f.parclose()
        return b"".join(out)

    out = run_spmd(m, task)
    assert b"".join(out) == b"".join(_payload(r, 400) for r in range(n))
    reads = backend.snapshot()["data_read_calls"] - before
    # ceil(3/3) = 1 collector; one gather_read per touched physical file
    # plus the set load's metadata reads (8 per file) — independent of the
    # number of freads above.
    assert reads == 1 + 8


# ---------------------------------------------------------------------------
# Compression / shadow riding along.


@pytest.mark.parametrize("kw", [
    {"compress": True},
    {"shadow": True},
    {"compress": True, "shadow": True},
])
def test_partitioned_read_with_flags(kw):
    backend = _backend()
    n = 5
    sizes = [900 + 50 * r for r in range(n)]
    _write(backend, n, sizes, chunksize=256, **kw)
    expected = b"".join(_payload(r, sizes[r]) for r in range(n))
    for m in (1, 2, 5):
        assert b"".join(_read_partitioned(backend, m)) == expected


def test_partitioned_fread_piecewise_with_compression():
    backend = _backend()
    n = 4
    sizes = [500] * n
    _write(backend, n, sizes, chunksize=256, compress=True)
    expected = b"".join(_payload(r, 500) for r in range(n))

    def task(comm):
        f = paropen("/s/m.sion", "r", comm, backend=backend, partitioned=True)
        parts = []
        while not f.feof():
            parts.append(f.fread(333))
        f.parclose()
        return b"".join(parts)

    assert b"".join(run_spmd(2, task)) == expected


# ---------------------------------------------------------------------------
# O(m) physical reads: the data-plane claim.


def test_partitioned_read_calls_scale_with_readers(sim_backend):
    from repro.backends.instrument import CountingBackend

    backend = CountingBackend(sim_backend)
    n = 32
    _write(backend, n, [64] * n, path="/scratch/om.sion")
    for m in (2, 4, 8):
        before = backend.snapshot()["data_read_calls"]
        out = _read_partitioned(backend, m, path="/scratch/om.sion")
        assert b"".join(out) == b"".join(_payload(r, 64) for r in range(n))
        reads = backend.snapshot()["data_read_calls"] - before
        # One vectored gather_read per reader (single physical file) plus
        # the set load's fixed metadata reads: mb1/mb2 decode (8).
        assert reads == m + 8, (m, reads)


# ---------------------------------------------------------------------------
# Failure shape: shortfalls are distinguishable from EOF.


def test_partition_stream_shortfall_stops_consuming():
    """A short read consumes only what arrived; later streams untouched."""
    from repro.backends.base import RawFile
    from repro.sion.layout import ChunkLayout
    from repro.sion.readwrite import PartitionStream, TaskStream

    class ShortStore(RawFile):
        """Positioned reads over a buffer shorter than the layout."""

        def __init__(self, data: bytes) -> None:
            self._data = data

        def pread(self, offset: int, n: int) -> bytes:
            return self._data[offset : offset + n]

        # Unused surface.
        def pwrite(self, offset, data):
            raise NotImplementedError

        def flush(self):
            pass

        def close(self):
            pass

    layout = ChunkLayout(64, [64, 64], 0)
    # Stream 0's chunk is complete; stream 1's chunk is half missing.
    store = ShortStore(bytes(range(64)) + bytes(range(64, 96)))
    s0 = TaskStream(store, layout, 0, [64])
    s1 = TaskStream(store, layout, 1, [64])
    mux = PartitionStream([s0, s1])
    got = mux.fread(200)
    assert got == bytes(range(96))
    assert not mux.feof()  # shortfall, not a clean end of slice
    assert mux.fread(100) == b""  # nothing more arrives
    assert not mux.feof()
    assert mux.tell_logical() == 96
