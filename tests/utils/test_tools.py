"""Command-line utility logic: dump, split, defragment."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import SionUsageError
from repro.sion import paropen, serial
from repro.simmpi import run_spmd
from repro.utils.defrag import defragment
from repro.utils.dump import dump_multifile, format_dump
from repro.utils.split import split_multifile
from tests.conftest import TEST_BLKSIZE

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _payload(rank, n):
    return bytes((rank + i) % 256 for i in range(n))


def _make(path, backend, ntasks=4, nfiles=2, sizes=None, compress=False):
    sizes = sizes if sizes is not None else [1300] * ntasks

    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, nfiles=nfiles,
                    compress=compress, backend=backend)
        f.fwrite(_payload(comm.rank, sizes[comm.rank]))
        f.parclose()

    run_spmd(ntasks, task)
    return sizes


class TestDump:
    def test_summary_fields(self, any_backend):
        backend, base = any_backend
        path = f"{base}/d.sion"
        sizes = _make(path, backend, ntasks=3, nfiles=1, sizes=[100, 700, 1300])
        s = dump_multifile(path, backend=backend)
        assert s.ntasks == 3
        assert s.nfiles == 1
        assert s.fsblksize == TEST_BLKSIZE
        assert s.bytes_per_task == sizes
        assert s.total_bytes == sum(sizes)
        assert s.nblocks == [1, 2, 3]
        assert s.maxblocks == 3
        assert not s.compressed

    def test_format_compact_and_verbose(self, any_backend):
        backend, base = any_backend
        path = f"{base}/fmt.sion"
        _make(path, backend, ntasks=2)
        s = dump_multifile(path, backend=backend)
        compact = format_dump(s)
        assert "tasks:       2" in compact
        assert "task " not in compact
        verbose = format_dump(s, verbose=True)
        assert "chunksize" in verbose
        assert len(verbose.splitlines()) > len(compact.splitlines())

    def test_compressed_flag_reported(self, any_backend):
        backend, base = any_backend
        path = f"{base}/dz.sion"
        _make(path, backend, ntasks=2, nfiles=1, compress=True)
        assert dump_multifile(path, backend=backend).compressed


class TestSplit:
    def test_extract_all(self, any_backend):
        backend, base = any_backend
        path = f"{base}/s.sion"
        sizes = _make(path, backend, ntasks=4, nfiles=2, sizes=[10, 600, 0, 1400])
        out = split_multifile(path, f"{base}/task_{{rank:03d}}.dat", backend=backend)
        assert len(out) == 4
        for r, p in enumerate(out):
            with backend.open(p, "rb") as f:
                assert f.pread(0, backend.file_size(p)) == _payload(r, sizes[r])

    def test_extract_subset(self, any_backend):
        backend, base = any_backend
        path = f"{base}/ss.sion"
        _make(path, backend, ntasks=4)
        out = split_multifile(path, f"{base}/t{{rank}}.dat", ranks=[1, 3], backend=backend)
        assert out == [f"{base}/t1.dat", f"{base}/t3.dat"]
        assert not backend.exists(f"{base}/t0.dat")

    def test_compressed_split_yields_logical_bytes(self, any_backend):
        backend, base = any_backend
        path = f"{base}/sz.sion"
        sizes = _make(path, backend, ntasks=2, nfiles=1, compress=True)
        out = split_multifile(path, f"{base}/z{{rank}}.dat", backend=backend)
        for r, p in enumerate(out):
            with backend.open(p, "rb") as f:
                assert f.pread(0, backend.file_size(p)) == _payload(r, sizes[r])

    def test_pattern_must_contain_rank(self, any_backend):
        backend, base = any_backend
        path = f"{base}/sp.sion"
        _make(path, backend, ntasks=2)
        with pytest.raises(SionUsageError, match="placeholder"):
            split_multifile(path, f"{base}/fixed.dat", backend=backend)

    def test_rank_out_of_range(self, any_backend):
        backend, base = any_backend
        path = f"{base}/sr.sion"
        _make(path, backend, ntasks=2)
        with pytest.raises(SionUsageError):
            split_multifile(path, f"{base}/t{{rank}}.dat", ranks=[5], backend=backend)


class TestDefrag:
    def test_contracts_to_single_block(self, any_backend):
        backend, base = any_backend
        path = f"{base}/f.sion"
        sizes = _make(path, backend, ntasks=3, sizes=[2000, 100, 900])
        out = defragment(path, f"{base}/f_defrag.sion", backend=backend)
        with serial.open(out, "r", backend=backend) as sf:
            loc = sf.get_locations()
            assert loc.nblocks == [1, 1, 1]
            for r in range(3):
                assert sf.read_task(r) == _payload(r, sizes[r])

    def test_preserves_content_with_gaps(self, any_backend):
        """Only one task grows blocks: the input has huge logical gaps."""
        backend, base = any_backend
        path = f"{base}/g.sion"
        sizes = _make(path, backend, ntasks=4, nfiles=1, sizes=[5000, 10, 10, 10])
        out = defragment(path, f"{base}/g_defrag.sion", backend=backend)
        in_size = backend.file_size(path)
        out_size = backend.file_size(out)
        assert out_size < in_size  # gaps removed
        with serial.open(out, "r", backend=backend) as sf:
            for r in range(4):
                assert sf.read_task(r) == _payload(r, sizes[r])

    def test_can_change_file_count_and_blocksize(self, any_backend):
        backend, base = any_backend
        path = f"{base}/h.sion"
        _make(path, backend, ntasks=4, nfiles=2)
        out = defragment(path, f"{base}/h_defrag.sion", nfiles=4,
                         fsblksize=256, backend=backend)
        with serial.open(out, "r", backend=backend) as sf:
            assert sf.nfiles == 4
            assert sf.fsblksize == 256

    def test_in_place_rejected(self, any_backend):
        backend, base = any_backend
        path = f"{base}/i.sion"
        _make(path, backend, ntasks=2)
        with pytest.raises(SionUsageError):
            defragment(path, path, backend=backend)

    def test_empty_tasks_survive(self, any_backend):
        backend, base = any_backend
        path = f"{base}/j.sion"
        _make(path, backend, ntasks=3, sizes=[0, 500, 0])
        out = defragment(path, f"{base}/j_defrag.sion", backend=backend)
        with serial.open(out, "r", backend=backend) as sf:
            assert sf.read_task(0) == b""
            assert sf.read_task(1) == _payload(1, 500)
            assert sf.read_task(2) == b""


class TestCLI:
    def test_python_m_repro_utils_runs_a_tool(self, tmp_path):
        """The offline entry point, as a process: dispatch, output, exit 0."""
        from repro.backends.localfs import LocalBackend

        path = str(tmp_path / "m.sion")
        _make(path, LocalBackend(blocksize_override=TEST_BLKSIZE), ntasks=2)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
        done = subprocess.run(
            [sys.executable, "-m", "repro.utils", "dump", path],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "tasks:       2" in done.stdout

    def test_dump_cli(self, tmp_path, capsys):
        from repro.utils.cli import main_dump

        backend_dir = str(tmp_path)
        path = f"{backend_dir}/cli.sion"
        from repro.backends.localfs import LocalBackend

        _make(path, LocalBackend(blocksize_override=TEST_BLKSIZE), ntasks=2)
        assert main_dump([path, "-v"]) == 0
        out = capsys.readouterr().out
        assert "tasks:       2" in out

    def test_split_cli(self, tmp_path, capsys):
        from repro.backends.localfs import LocalBackend
        from repro.utils.cli import main_split

        path = f"{tmp_path}/cli2.sion"
        _make(path, LocalBackend(blocksize_override=TEST_BLKSIZE), ntasks=2)
        assert main_split([path, f"{tmp_path}/out_{{rank}}.dat"]) == 0
        assert "extracted 2" in capsys.readouterr().out

    def test_defrag_cli(self, tmp_path, capsys):
        from repro.backends.localfs import LocalBackend
        from repro.utils.cli import main_defrag

        path = f"{tmp_path}/cli3.sion"
        _make(path, LocalBackend(blocksize_override=TEST_BLKSIZE), ntasks=2)
        assert main_defrag([path, f"{tmp_path}/cli3_d.sion"]) == 0

    def test_recover_cli(self, tmp_path, capsys):
        from repro.backends.localfs import LocalBackend
        from repro.sion import paropen as po
        from repro.utils.cli import main_recover

        backend = LocalBackend(blocksize_override=TEST_BLKSIZE)
        path = f"{tmp_path}/cli4.sion"

        def task(comm):
            f = po(path, "w", comm, chunksize=TEST_BLKSIZE, shadow=True, backend=backend)
            f.fwrite(b"x" * 300)
            f.flush_shadow()
            f._raw.close()

        run_spmd(2, task)
        assert main_recover([path]) == 0
        assert "recovered: 1" in capsys.readouterr().out

    def test_cli_error_paths_return_nonzero(self, tmp_path, capsys):
        from repro.utils.cli import main_dump, main_split

        assert main_dump([f"{tmp_path}/missing.sion"]) == 1
        assert "error:" in capsys.readouterr().err or True
        from repro.backends.localfs import LocalBackend

        path = f"{tmp_path}/e.sion"
        _make(path, LocalBackend(blocksize_override=TEST_BLKSIZE), ntasks=2)
        assert main_split([path, f"{tmp_path}/no-placeholder.dat"]) == 1
