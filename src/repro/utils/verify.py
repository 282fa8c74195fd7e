"""``sionverify``: consistency checking of a multifile set.

Every reader already applies the set loader's checks
(:func:`~repro.sion.loader.load_set`: both metablocks decode, every file
agrees with file 0 and its mapping, every rank is covered, block tables
fit their chunks) and refuses what fails them; ``sionverify`` reports
every such finding instead of stopping at the first, up to the first
missing file: there the load stops, and one finding names the missing
file and the files after it that were not probed.  What it adds is
its own: metablock 2's offset against the physical file size,
optionally the shadow headers against metablock 2 (``deep``), a
partitioned read cross-checked against the serial view (``readers``),
and the what-if of losing one file (:func:`assess_loss`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends.base import Backend
from repro.backends.localfs import LocalBackend
from repro.errors import ReproError
from repro.sion.constants import FLAG_BUDDY, FLAG_SHADOW
from repro.sion.loader import (
    CHECKS_PER_FILE,
    INTACT,
    FileLoad,
    load_head,
    load_set,
    qualify_replica,
    read_shadow_headers,
)


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

    ``engine`` selects the SPMD engine of that partitioned read (one of
    :data:`repro.simmpi.ENGINES`).  The default stays ``bulk`` because a
    reader world is allowed to be huge; with ``"proc"`` the backend must
    be able to cross process boundaries
    (:class:`~repro.backends.localfs.LocalBackend` can).
    """
    backend = backend if backend is not None else LocalBackend()
    report = VerifyReport(path=path)
    load = load_set(backend, path)
    try:
        if load.mapping is None:
            report.error(load.files[0].finding)
            return report
        report.nfiles = load.mapping.nfiles
        report.ntasks = load.mapping.ntasks
        for f in load.files:
            report.checks_run += CHECKS_PER_FILE
            if f.status == INTACT:
                _verify_file(f, backend, report, deep)
        report.checks_run += 1  # every rank covered
        for finding in load.findings:
            report.error(finding)
    finally:
        load.close()
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
            expected = sf.slice(part.writers_of(r)).read_all()
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


def _verify_file(f: FileLoad, backend: Backend, report: VerifyReport, deep: bool) -> None:
    """sionverify's own checks of one intact physical file."""
    fsize = backend.file_size(f.path)
    report.check(
        f.mb1.metablock2_offset < fsize,
        f"{f.path}: metablock 2 offset {f.mb1.metablock2_offset} beyond "
        f"file size {fsize}",
    )
    if deep:
        if not f.mb1.flags & FLAG_SHADOW:
            report.warn(f"{f.path}: deep check requested but no shadow headers")
        else:
            _deep_check_shadows(f, fsize, report)


def _deep_check_shadows(f: FileLoad, fsize: int, report: VerifyReport) -> None:
    for ltask in range(f.mb2.ntasks_local):
        blocks = f.mb2.row(ltask)
        headers = read_shadow_headers(f.raw, f.layout, ltask, fsize, len(blocks))
        for b, nbytes in enumerate(blocks):
            hdr = headers[b] if b < len(headers) else None
            if hdr is None:
                report.check(
                    nbytes == 0,
                    f"{f.path}: task {ltask} block {b} has data but no shadow header",
                )
                continue
            report.check(
                hdr.ltask == ltask and hdr.block == b,
                f"{f.path}: shadow header at task {ltask} block {b} "
                f"identifies itself as task {hdr.ltask} block {hdr.block}",
            )
            report.check(
                hdr.written == nbytes,
                f"{f.path}: task {ltask} block {b}: shadow says {hdr.written} "
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
    :func:`~repro.sion.loader.qualify_replica`, the test
    :func:`~repro.sion.recovery.recover_multifile` applies before a
    byte-copy restore.  Shadow headers cannot save a lost file — they
    live inside it — so a shadow-only set reports unrecoverable here.
    """
    backend = backend if backend is not None else LocalBackend()
    report = VerifyReport(path=path)
    head, tmap = load_head(backend, path)  # file 0 holds the mapping and flags
    head.close()
    if tmap is None:
        report.error(head.finding)
        return report
    report.nfiles = nfiles = tmap.nfiles
    report.ntasks = tmap.ntasks
    if not 0 <= filenum < nfiles:
        report.error(
            f"--inject lose-file={filenum}: the set has {nfiles} physical file(s)"
        )
        return report
    if not head.mb1.flags & FLAG_BUDDY:
        report.error(
            f"{path}: set written without buddy=True; losing file "
            f"{filenum} would be unrecoverable"
        )
        return report
    rpath, replica = qualify_replica(path, filenum, nfiles, backend)
    report.check(
        not isinstance(replica, str),
        f"{replica}; losing file {filenum} would be unrecoverable",
    )
    if report.ok:
        replica.close()
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
