"""Cross-mode interoperability: every writer's output is every reader's input."""

from repro.sion import open_rank, paropen, serial
from repro.simmpi import run_spmd
from tests.conftest import TEST_BLKSIZE


def _payload(rank, n):
    return bytes((rank * 101 + i) % 256 for i in range(n))


def test_parallel_write_serial_read(any_backend):
    backend, base = any_backend
    path = f"{base}/pw_sr.sion"

    def wtask(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, nfiles=2, backend=backend)
        f.fwrite(_payload(comm.rank, 1000))
        f.parclose()

    run_spmd(4, wtask)
    with serial.open(path, "r", backend=backend) as sf:
        for r in range(4):
            assert sf.read_task(r) == _payload(r, 1000)


def test_serial_write_parallel_read(any_backend):
    backend, base = any_backend
    path = f"{base}/sw_pr.sion"
    sf = serial.open(
        path, "w", chunksizes=[256, 512, 128], fsblksize=TEST_BLKSIZE, backend=backend
    )
    for r in range(3):
        sf.seek(r)
        sf.fwrite(_payload(r, 1000))
    sf.close()

    def rtask(comm):
        f = paropen(path, "r", comm, backend=backend)
        data = f.read_all()
        f.parclose()
        return data

    out = run_spmd(3, rtask)
    assert all(out[r] == _payload(r, 1000) for r in range(3))


def test_serial_write_rank_read(any_backend):
    backend, base = any_backend
    path = f"{base}/sw_rr.sion"
    sf = serial.open(
        path, "w", chunksizes=[64] * 4, nfiles=2, fsblksize=TEST_BLKSIZE, backend=backend
    )
    for r in range(4):
        sf.seek(r)
        sf.write(_payload(r, 40))
    sf.close()
    for r in range(4):
        with open_rank(path, r, backend=backend) as rf:
            assert rf.read_all() == _payload(r, 40)


def test_parallel_rewrite_then_read(any_backend):
    """Re-creating a multifile at the same path replaces it cleanly."""
    backend, base = any_backend
    path = f"{base}/rewrite.sion"

    for generation in range(2):
        def wtask(comm, gen=generation):
            f = paropen(path, "w", comm, chunksize=128, backend=backend)
            f.fwrite(f"gen{gen}-rank{comm.rank}".encode())
            f.parclose()

        run_spmd(2, wtask)

    def rtask(comm):
        f = paropen(path, "r", comm, backend=backend)
        data = f.read_all()
        f.parclose()
        return data

    out = run_spmd(2, rtask)
    assert out == [b"gen1-rank0", b"gen1-rank1"]


def test_all_access_modes_agree(any_backend):
    """Parallel read, global view, and rank view must see identical bytes."""
    backend, base = any_backend
    path = f"{base}/agree.sion"
    sizes = [0, 700, 1300, 64]

    def wtask(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, nfiles=3, backend=backend)
        f.fwrite(_payload(comm.rank, sizes[comm.rank]))
        f.parclose()

    run_spmd(4, wtask)

    def rtask(comm):
        f = paropen(path, "r", comm, backend=backend)
        data = f.read_all()
        f.parclose()
        return data

    via_parallel = run_spmd(4, rtask)
    with serial.open(path, "r", backend=backend) as sf:
        via_global = [sf.read_task(r) for r in range(4)]
    via_rank = []
    for r in range(4):
        with open_rank(path, r, backend=backend) as rf:
            via_rank.append(rf.read_all())
    assert via_parallel == via_global == via_rank
    assert [len(d) for d in via_parallel] == sizes


def test_write_on_sim_read_on_sim_counts_ops(sim_backend):
    """The SimFS counts accumulate across the whole write/read cycle."""
    backend = sim_backend
    path = "/scratch/clock.sion"

    def wtask(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, backend=backend)
        f.fwrite(b"t" * 2000)
        f.parclose()

    run_spmd(2, wtask)
    assert backend.fs.op_counts["create"] == 1  # one physical file, not two
    written = backend.fs.op_counts["write_bytes"]
    assert written >= 2 * 2000

    def rtask(comm):
        f = paropen(path, "r", comm, backend=backend)
        f.read_all()
        f.parclose()

    run_spmd(2, rtask)
    assert backend.fs.op_counts["create"] == 1
    assert backend.fs.op_counts["write_bytes"] == written
    assert backend.fs.op_counts["read_bytes"] >= 2 * 2000
