"""sionverify and sioncat."""

import io

from repro.sion import paropen
from repro.simmpi import run_spmd
from repro.utils.cat import cat_rank
from repro.utils.verify import format_report, verify_multifile
from tests.conftest import TEST_BLKSIZE


def _payload(rank, n=900):
    return bytes((rank * 3 + i) % 256 for i in range(n))


def _make(path, backend, ntasks=4, nfiles=2, shadow=False, compress=False):
    def task(comm):
        f = paropen(path, "w", comm, chunksize=TEST_BLKSIZE, nfiles=nfiles,
                    shadow=shadow, compress=compress, backend=backend)
        f.fwrite(_payload(comm.rank))
        f.parclose()

    run_spmd(ntasks, task)


class TestVerify:
    def test_clean_multifile_passes(self, any_backend):
        backend, base = any_backend
        path = f"{base}/v.sion"
        _make(path, backend)
        report = verify_multifile(path, backend=backend)
        assert report.ok, report.errors
        assert report.nfiles == 2 and report.ntasks == 4
        assert report.checks_run > 10
        assert "status: OK" in format_report(report)

    def test_deep_check_with_shadows(self, any_backend):
        backend, base = any_backend
        path = f"{base}/vs.sion"
        _make(path, backend, shadow=True)
        report = verify_multifile(path, backend=backend, deep=True)
        assert report.ok, report.errors

    def test_deep_without_shadows_warns(self, any_backend):
        backend, base = any_backend
        path = f"{base}/vw.sion"
        _make(path, backend)
        report = verify_multifile(path, backend=backend, deep=True)
        assert report.ok
        assert report.warnings

    def test_missing_sibling_detected(self, any_backend):
        backend, base = any_backend
        path = f"{base}/vm.sion"
        _make(path, backend, nfiles=3)
        backend.unlink(f"{path}.000002")
        report = verify_multifile(path, backend=backend)
        assert not report.ok
        assert any("missing" in e for e in report.errors)
        assert any("incomplete" in e for e in report.errors)

    def test_corrupt_metablock2_detected(self, any_backend):
        backend, base = any_backend
        path = f"{base}/vc.sion"
        _make(path, backend, nfiles=1)
        size = backend.file_size(path)
        with backend.open(path, "r+b") as f:
            f.pwrite(size - 2, b"\xff\xff")  # clobber the CRC
        report = verify_multifile(path, backend=backend)
        assert not report.ok
        assert any("metablock 2" in e for e in report.errors)

    def test_truncated_file_detected(self, any_backend):
        backend, base = any_backend
        path = f"{base}/vt.sion"
        _make(path, backend, nfiles=1)
        with backend.open(path, "rb") as f:  # tear: rewrite a prefix only
            prefix = f.pread(0, backend.file_size(path) - 10)
        with backend.open(path, "wb") as f:
            f.pwrite(0, prefix)
        report = verify_multifile(path, backend=backend)
        assert not report.ok

    def test_unreadable_path_reported_not_raised(self, any_backend):
        backend, base = any_backend
        report = verify_multifile(f"{base}/nonexistent.sion", backend=backend)
        assert not report.ok

    def test_shadow_mismatch_found_by_deep_check(self, any_backend):
        backend, base = any_backend
        path = f"{base}/vsm.sion"
        _make(path, backend, nfiles=1, shadow=True)
        # Corrupt the first chunk's shadow header's `written` field by
        # rewriting a valid header with a wrong count.
        from repro.sion.format import Metablock1, ShadowHeader
        from repro.sion.layout import ChunkLayout

        with backend.open(path, "r+b") as f:
            mb1 = Metablock1.decode_from(f)
            layout = ChunkLayout.from_metablock1(mb1)
            f.pwrite(
                layout.chunk_start(0, 0), ShadowHeader(ltask=0, block=0, written=1).encode()
            )
        report = verify_multifile(path, backend=backend, deep=True)
        assert not report.ok
        assert any("shadow" in e for e in report.errors)


class TestCat:
    def test_cat_streams_logical_bytes(self, any_backend):
        backend, base = any_backend
        path = f"{base}/c.sion"
        _make(path, backend)
        sink = io.BytesIO()
        n = cat_rank(path, 2, out=sink, backend=backend)
        assert n == 900
        assert sink.getvalue() == _payload(2)

    def test_cat_decompresses(self, any_backend):
        backend, base = any_backend
        path = f"{base}/cz.sion"
        _make(path, backend, compress=True)
        sink = io.BytesIO()
        cat_rank(path, 1, out=sink, backend=backend)
        assert sink.getvalue() == _payload(1)

    def test_cat_empty_task(self, any_backend):
        backend, base = any_backend
        path = f"{base}/ce.sion"

        def task(comm):
            f = paropen(path, "w", comm, chunksize=64, backend=backend)
            if comm.rank == 0:
                f.fwrite(b"only rank zero")
            f.parclose()

        run_spmd(2, task)
        sink = io.BytesIO()
        assert cat_rank(path, 1, out=sink, backend=backend) == 0
        assert sink.getvalue() == b""

    def test_cli_verify(self, tmp_path, capsys):
        from repro.backends.localfs import LocalBackend
        from repro.utils.cli import main_verify

        backend = LocalBackend(blocksize_override=TEST_BLKSIZE)
        path = f"{tmp_path}/cli.sion"
        _make(path, backend, nfiles=1)
        assert main_verify([path]) == 0
        assert "status: OK" in capsys.readouterr().out

    def test_cli_cat(self, tmp_path, capsysbinary):
        from repro.backends.localfs import LocalBackend
        from repro.utils.cli import main_cat

        backend = LocalBackend(blocksize_override=TEST_BLKSIZE)
        path = f"{tmp_path}/clicat.sion"
        _make(path, backend, nfiles=1)
        assert main_cat([path, "0"]) == 0
        assert capsysbinary.readouterr().out == _payload(0)

    def test_cli_verify_fails_on_damage(self, tmp_path, capsys):
        from repro.backends.localfs import LocalBackend
        from repro.utils.cli import main_verify

        backend = LocalBackend(blocksize_override=TEST_BLKSIZE)
        path = f"{tmp_path}/bad.sion"
        _make(path, backend, nfiles=2)
        backend.unlink(f"{path}.000001")
        assert main_verify([path]) == 2

    def test_cli_verify_readers_on_proc_engine(self, tmp_path, capsys):
        from repro.backends.localfs import LocalBackend
        from repro.utils.cli import main_verify

        backend = LocalBackend(blocksize_override=TEST_BLKSIZE)
        path = f"{tmp_path}/proc.sion"
        _make(path, backend, nfiles=1)
        assert main_verify([path, "--readers", "2", "--engine", "proc"]) == 0
        assert "status: OK" in capsys.readouterr().out

    def test_cli_verify_rejects_unknown_engine(self, tmp_path, capsys):
        from repro.backends.localfs import LocalBackend
        from repro.utils.cli import main_verify

        backend = LocalBackend(blocksize_override=TEST_BLKSIZE)
        path = f"{tmp_path}/eng.sion"
        _make(path, backend, nfiles=1)
        assert main_verify([path, "--readers", "2", "--engine", "nope"]) == 2
        assert "unknown SPMD engine" in capsys.readouterr().out
