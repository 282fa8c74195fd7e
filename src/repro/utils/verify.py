"""``sionverify``: consistency checking of a multifile set.

Beyond what plain opening already validates (magics, version, metablock-2
CRC), this walks the whole set and cross-checks the pieces against each
other: mapping bijectivity, per-file task counts, chunk-layout bounds,
recorded byte counts vs. chunk capacities, physical file sizes, and —
optionally — the shadow headers against metablock 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.base import Backend
from repro.backends.localfs import LocalBackend
from repro.errors import ReproError, SionFormatError
from repro.sion.constants import FLAG_BUDDY, FLAG_SHADOW, SHADOW_HEADER_SIZE
from repro.sion.format import Metablock1, Metablock2, ShadowHeader
from repro.sion.layout import ChunkLayout
from repro.sion.mapping import TaskMapping, physical_path
from repro.sion.recovery import qualify_replica


@dataclass
class VerifyReport:
    """Outcome of one verification pass."""

    path: str
    nfiles: int = 0
    ntasks: int = 0
    checks_run: int = 0
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, msg: str) -> None:
        self.errors.append(msg)

    def warn(self, msg: str) -> None:
        self.warnings.append(msg)

    def check(self, condition: bool, msg: str) -> None:
        self.checks_run += 1
        if not condition:
            self.error(msg)


def verify_multifile(
    path: str,
    backend: Backend | None = None,
    deep: bool = False,
    readers: int | None = None,
    engine: str = "bulk",
) -> VerifyReport:
    """Verify a multifile set; returns a report rather than raising.

    ``deep=True`` additionally validates every shadow header against the
    recorded metablock-2 byte counts (only for sets written with
    ``shadow=True``).  ``readers=m`` additionally executes an ``m``-rank
    partitioned read of the whole set and cross-checks every reader's
    slice against the serial global view — proving the container can be
    consumed by a differently sized world, byte for byte.

    ``engine`` selects the SPMD engine of that partitioned read (any
    name :func:`repro.simmpi.normalize_engine` accepts).  The default
    stays ``bulk`` because a reader world is allowed to be huge; with
    ``"proc"`` the backend must be able to cross process boundaries
    (:class:`~repro.backends.localfs.LocalBackend` can).
    """
    backend = backend if backend is not None else LocalBackend()
    report = VerifyReport(path=path)

    try:
        raw0 = backend.open(path, "rb")
        mb1_0 = Metablock1.decode_from(raw0)
        raw0.close()
    except (ReproError, OSError) as exc:
        report.error(f"{path}: cannot read metablock 1: {exc}")
        return report

    report.nfiles = mb1_0.nfiles
    report.ntasks = mb1_0.ntasks_global
    try:
        tmap = TaskMapping.from_kind_code(
            mb1_0.ntasks_global, mb1_0.nfiles, mb1_0.mapping_kind, mb1_0.mapping_table
        )
    except Exception as exc:  # noqa: BLE001 - report, don't raise
        report.error(f"{path}: invalid task mapping: {exc}")
        return report

    seen_ranks: set[int] = set()
    for filenum in range(mb1_0.nfiles):
        fpath = physical_path(path, filenum)
        _verify_one(fpath, filenum, mb1_0, tmap, backend, report, deep, seen_ranks)

    report.check(
        seen_ranks == set(range(mb1_0.ntasks_global)),
        f"global ranks covered by the set are incomplete: "
        f"{len(seen_ranks)}/{mb1_0.ntasks_global}",
    )
    if readers is not None and report.ok:
        _verify_partitioned_read(path, backend, readers, report, engine)
    return report


def _verify_partitioned_read(
    path: str, backend: Backend, readers: int, report: VerifyReport, engine: str
) -> None:
    """Cross-check an m-reader partitioned read against the serial view."""
    from repro.sion import paropen, serial
    from repro.sion.mapping import ReadPartition
    from repro.simmpi import normalize_engine, run_spmd

    if readers < 1:
        report.error(f"--readers must be >= 1, got {readers}")
        return
    try:
        engine = normalize_engine(engine)
    except ReproError as exc:
        report.error(str(exc))
        return
    part = ReadPartition.balanced(report.ntasks, readers)

    def read_task(comm):
        f = paropen(path, "r", comm, backend=backend, partitioned=True)
        data = f.read_all()
        eof = f.feof()
        f.parclose()
        return data, eof

    try:
        # Default is the bulk engine: a reader world is allowed to be huge
        # (that is the feature), and one OS thread per reader stops working
        # around a few thousand — the SION layer is replay-safe by
        # construction.  --engine proc trades world size for real cores.
        out = run_spmd(readers, read_task, engine=engine)
    except Exception as exc:  # noqa: BLE001 - report, don't raise
        report.error(f"{path}: partitioned read with {readers} readers failed: {exc}")
        return
    with serial.open(path, "r", backend=backend) as sf:
        for r, (data, eof) in enumerate(out):
            expected = b"".join(sf.read_task(w) for w in part.writers_of(r))
            report.check(
                eof,
                f"{path}: reader {r}/{readers} left data unread "
                "(shortfall against recorded metadata)",
            )
            report.check(
                data == expected,
                f"{path}: reader {r}/{readers} diverged from the serial "
                f"view ({len(data)} vs {len(expected)} bytes)",
            )


def _verify_one(
    fpath: str,
    filenum: int,
    mb1_0: Metablock1,
    tmap: TaskMapping,
    backend: Backend,
    report: VerifyReport,
    deep: bool,
    seen_ranks: set[int],
) -> None:
    if not backend.exists(fpath):
        report.error(f"{fpath}: physical file {filenum} is missing")
        return
    raw = backend.open(fpath, "rb")
    try:
        try:
            mb1 = Metablock1.decode_from(raw)
        except SionFormatError as exc:
            report.error(f"{fpath}: bad metablock 1: {exc}")
            return
        report.check(mb1.filenum == filenum, f"{fpath}: filenum {mb1.filenum} != {filenum}")
        report.check(
            mb1.nfiles == mb1_0.nfiles and mb1.ntasks_global == mb1_0.ntasks_global,
            f"{fpath}: set geometry disagrees with file 0",
        )
        report.check(
            mb1.fsblksize == mb1_0.fsblksize,
            f"{fpath}: fsblksize {mb1.fsblksize} != file 0's {mb1_0.fsblksize}",
        )
        expected_members = tmap.tasks_of_file(filenum)
        report.check(
            mb1.globalranks == expected_members,
            f"{fpath}: stored global ranks disagree with the mapping",
        )
        seen_ranks.update(mb1.globalranks)

        layout = ChunkLayout.from_metablock1(mb1)
        try:
            mb2 = Metablock2.decode_from(raw, mb1.metablock2_offset)
        except SionFormatError as exc:
            report.error(f"{fpath}: bad metablock 2: {exc}")
            return
        report.check(
            mb2.ntasks_local == mb1.ntasks_local,
            f"{fpath}: metablock 2 task count {mb2.ntasks_local} != "
            f"metablock 1's {mb1.ntasks_local}",
        )
        shadow = bool(mb1.flags & FLAG_SHADOW)
        usable_delta = SHADOW_HEADER_SIZE if shadow else 0
        for ltask, blocks in enumerate(mb2.blocksizes):
            cap = layout.capacity(ltask) - usable_delta
            for b, nbytes in enumerate(blocks):
                report.check(
                    nbytes <= cap,
                    f"{fpath}: task {ltask} block {b} records {nbytes} bytes, "
                    f"over the chunk capacity {cap}",
                )
        fsize = backend.file_size(fpath)
        report.check(
            mb1.metablock2_offset < fsize,
            f"{fpath}: metablock 2 offset {mb1.metablock2_offset} beyond "
            f"file size {fsize}",
        )
        end = layout.end_of_blocks(mb2.maxblocks)
        report.check(
            mb1.metablock2_offset >= end or mb2.maxblocks == 0,
            f"{fpath}: metablock 2 at {mb1.metablock2_offset} overlaps "
            f"chunk data ending at {end}",
        )
        if deep:
            if not shadow:
                report.warn(f"{fpath}: deep check requested but no shadow headers")
            else:
                _deep_check_shadows(fpath, raw, layout, mb2, report)
    finally:
        raw.close()


def _deep_check_shadows(
    fpath: str, raw, layout: ChunkLayout, mb2: Metablock2, report: VerifyReport
) -> None:
    for ltask, blocks in enumerate(mb2.blocksizes):
        for b, nbytes in enumerate(blocks):
            # Positioned probe: the header address is computable locally.
            hdr = ShadowHeader.decode(
                raw.pread(layout.chunk_start(ltask, b), SHADOW_HEADER_SIZE)
            )
            if hdr is None:
                report.check(
                    nbytes == 0,
                    f"{fpath}: task {ltask} block {b} has data but no shadow header",
                )
                continue
            report.check(
                hdr.ltask == ltask and hdr.block == b,
                f"{fpath}: shadow header at task {ltask} block {b} "
                f"identifies itself as task {hdr.ltask} block {hdr.block}",
            )
            report.check(
                hdr.written == nbytes,
                f"{fpath}: task {ltask} block {b}: shadow says {hdr.written} "
                f"bytes, metablock 2 says {nbytes}",
            )


def assess_loss(
    path: str, filenum: int, backend: Backend | None = None
) -> VerifyReport:
    """What-if assessment: could the set survive losing file ``filenum``?

    The ``sionverify --inject lose-file=K`` backend.  Non-destructive:
    nothing is deleted or modified.  The report is ``ok`` iff losing
    physical file ``K`` *entirely* would still be recoverable — i.e. the
    set was written with ``buddy=True`` and file ``K``'s replica passes
    :func:`~repro.sion.recovery.qualify_replica`, the test
    :func:`~repro.sion.recovery.recover_multifile` applies before a
    byte-copy restore.  Shadow headers cannot save a lost file — they
    live inside it — so a shadow-only set reports unrecoverable here.
    """
    backend = backend if backend is not None else LocalBackend()
    report = VerifyReport(path=path)
    try:
        raw0 = backend.open(path, "rb")
        mb1_0 = Metablock1.decode_from(raw0)
        raw0.close()
    except (ReproError, OSError) as exc:
        report.error(f"{path}: cannot read metablock 1: {exc}")
        return report
    report.nfiles = mb1_0.nfiles
    report.ntasks = mb1_0.ntasks_global
    if not 0 <= filenum < mb1_0.nfiles:
        report.error(
            f"--inject lose-file={filenum}: the set has {mb1_0.nfiles} "
            "physical file(s)"
        )
        return report
    if not mb1_0.flags & FLAG_BUDDY:
        report.error(
            f"{path}: set written without buddy=True; losing file "
            f"{filenum} would be unrecoverable"
        )
        return report
    rpath, found = qualify_replica(path, filenum, mb1_0.nfiles, backend)
    report.check(
        not isinstance(found, str),
        f"{rpath}: {found}; losing file {filenum} would be unrecoverable",
    )
    if report.ok:
        report.warnings.append(
            f"losing file {filenum} would be recoverable: intact buddy "
            f"replica at {rpath}"
        )
    return report


def format_report(report: VerifyReport) -> str:
    """Human-readable rendering of a verification report."""
    lines = [
        f"multifile: {report.path}",
        f"files: {report.nfiles}  tasks: {report.ntasks}  "
        f"checks: {report.checks_run}",
    ]
    lines.extend(f"warning: {w}" for w in report.warnings)
    lines.extend(f"ERROR: {e}" for e in report.errors)
    lines.append("status: " + ("OK" if report.ok else f"{len(report.errors)} error(s)"))
    return "\n".join(lines)
