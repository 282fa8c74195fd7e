"""Scale and randomized-property stress for the parallel layer."""

from hypothesis import given, settings, strategies as st

from repro.backends.simfs_backend import SimBackend
from repro.fs.simfs import SimFS
from repro.sion import paropen, serial
from repro.simmpi import run_spmd
from tests.conftest import TEST_BLKSIZE


def _fresh_backend():
    return SimBackend(SimFS(blocksize_override=TEST_BLKSIZE))


def test_128_rank_roundtrip():
    backend = _fresh_backend()
    path = "/scratch/big.sion"

    def task(comm):
        f = paropen(path, "w", comm, chunksize=256, nfiles=8, backend=backend)
        f.fwrite(bytes([comm.rank % 256]) * (100 + comm.rank))
        f.parclose()

    run_spmd(128, task)

    def rtask(comm):
        f = paropen(path, "r", comm, backend=backend)
        data = f.read_all()
        f.parclose()
        return data

    out = run_spmd(128, rtask)
    for r in range(128):
        assert out[r] == bytes([r % 256]) * (100 + r)


def test_many_sequential_multifiles_per_world():
    backend = _fresh_backend()

    def task(comm):
        total = 0
        for gen in range(20):
            path = f"/scratch/gen{gen}.sion"
            f = paropen(path, "w", comm, chunksize=128, backend=backend)
            f.fwrite(f"{gen}:{comm.rank}".encode())
            f.parclose()
            total += 1
        return total

    assert run_spmd(4, task) == [20] * 4
    with serial.open("/scratch/gen19.sion", "r", backend=backend) as sf:
        assert sf.read_task(3) == b"19:3"


def test_interleaved_write_phases_many_blocks():
    """Hundreds of tiny ensure_free_space cycles build a deep block chain."""
    backend = _fresh_backend()
    path = "/scratch/deep.sion"

    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        for i in range(200):
            piece = bytes([(comm.rank + i) % 256]) * 37
            f.ensure_free_space(len(piece))
            f.write(piece)
        f.parclose()

    run_spmd(4, task)
    with serial.open(path, "r", backend=backend) as sf:
        loc = sf.get_locations()
        assert max(loc.nblocks) >= 200 * 37 // TEST_BLKSIZE
        for r in range(4):
            expected = b"".join(bytes([(r + i) % 256]) * 37 for i in range(200))
            assert sf.read_task(r) == expected


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=10),
    nfiles=st.integers(1, 4),
    chunksize=st.sampled_from([64, 200, 512, 1500]),
)
def test_roundtrip_property_random_shapes(sizes, nfiles, chunksize):
    """Any (sizes, nfiles, chunksize) combination must roundtrip exactly."""
    backend = _fresh_backend()
    path = "/scratch/prop.sion"
    ntasks = len(sizes)
    nfiles = min(nfiles, ntasks)

    def wtask(comm):
        f = paropen(path, "w", comm, chunksize=chunksize, nfiles=nfiles,
                    backend=backend)
        f.fwrite(bytes((comm.rank + i) % 256 for i in range(sizes[comm.rank])))
        f.parclose()

    run_spmd(ntasks, wtask)
    with serial.open(path, "r", backend=backend) as sf:
        loc = sf.get_locations()
        assert loc.total_bytes() == sum(sizes)
        for r in range(ntasks):
            expected = bytes((r + i) % 256 for i in range(sizes[r]))
            assert sf.read_task(r) == expected


@settings(max_examples=15, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.booleans(), st.integers(1, 400)), min_size=1, max_size=20
    )
)
def test_mixed_write_fwrite_property(writes):
    """Interleaving guarded plain writes and fwrites preserves the stream."""
    backend = _fresh_backend()
    path = "/scratch/mixed.sion"

    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        expected = bytearray()
        for j, (use_plain, n) in enumerate(writes):
            data = bytes([(comm.rank * 7 + j) % 256]) * n
            if use_plain:
                f.ensure_free_space(len(data))
                f.write(data)
            else:
                f.fwrite(data)
            expected.extend(data)
        f.parclose()
        return bytes(expected)

    expected = run_spmd(2, task)
    with serial.open(path, "r", backend=backend) as sf:
        for r in range(2):
            assert sf.read_task(r) == expected[r]
