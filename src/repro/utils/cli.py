"""Argparse entry points for the multifile command-line utilities.

Installed as ``siondump``, ``sionsplit``, ``siondefrag``,
``sionrecover``, ``sionverify`` and ``sioncat`` (see
``pyproject.toml``); also reachable without an install as
``python -m repro.utils <tool>``.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError, SionUsageError
from repro.sion.recovery import recover_multifile
from repro.utils.cat import cat_rank, cat_reader
from repro.utils.defrag import defragment
from repro.utils.dump import dump_multifile, format_dump, format_partition
from repro.utils.split import split_multifile
from repro.utils.verify import assess_loss, format_report, verify_multifile


def main_dump(argv: list[str] | None = None) -> int:
    """``siondump [-v] [--readers M] MULTIFILE``

    Print the multifile's metadata summary; ``-v`` adds one line per
    task, ``--readers M`` appends the reader→stream assignment table of
    an ``M``-reader partitioned read.  Returns 0 on success, 1 (with a
    message on stderr) on a damaged or missing multifile.

    Example: ``siondump --readers 4 out.sion``.
    """
    p = argparse.ArgumentParser(
        prog="siondump", description="Print SION multifile metadata."
    )
    p.add_argument("multifile", help="path of physical file 0")
    p.add_argument(
        "-v", "--verbose", action="store_true", help="one line per task"
    )
    p.add_argument(
        "--readers",
        type=int,
        default=None,
        metavar="M",
        help="also print the reader→stream assignment table of an "
        "M-reader partitioned read",
    )
    args = p.parse_args(argv)

    def run() -> None:
        summary = dump_multifile(args.multifile)
        text = format_dump(summary, args.verbose)
        if args.readers is not None:
            text += "\n" + format_partition(summary, args.readers)
        print(text)

    return _run(run)


def main_split(argv: list[str] | None = None) -> int:
    """``sionsplit MULTIFILE OUT_PATTERN [--ranks 0 1 2]``"""
    p = argparse.ArgumentParser(
        prog="sionsplit",
        description="Extract logical task-local files from a SION multifile.",
    )
    p.add_argument("multifile", help="path of physical file 0")
    p.add_argument(
        "out_pattern",
        help="output path containing '{rank}', e.g. 'task_{rank:06d}.dat'",
    )
    p.add_argument(
        "--ranks", type=int, nargs="+", default=None, help="extract only these ranks"
    )
    args = p.parse_args(argv)

    def run() -> None:
        paths = split_multifile(args.multifile, args.out_pattern, args.ranks)
        print(f"extracted {len(paths)} logical file(s)")

    return _run(run)


def main_defrag(argv: list[str] | None = None) -> int:
    """``siondefrag IN OUT [--nfiles N] [--fsblksize B]``"""
    p = argparse.ArgumentParser(
        prog="siondefrag",
        description="Contract a SION multifile into a dense single-block one.",
    )
    p.add_argument("input", help="path of physical file 0")
    p.add_argument("output", help="path of the defragmented multifile")
    p.add_argument("--nfiles", type=int, default=1, help="output physical files")
    p.add_argument(
        "--fsblksize", type=int, default=None, help="output alignment granularity"
    )
    args = p.parse_args(argv)

    def run() -> None:
        out = defragment(args.input, args.output, args.nfiles, args.fsblksize)
        print(f"defragmented into {out}")

    return _run(run)


def main_recover(argv: list[str] | None = None) -> int:
    """``sionrecover MULTIFILE [--force]``"""
    p = argparse.ArgumentParser(
        prog="sionrecover",
        description="Rebuild a lost metablock 2 from per-chunk shadow headers.",
    )
    p.add_argument("multifile", help="path of physical file 0")
    p.add_argument(
        "--force",
        action="store_true",
        help="rebuild even if metablock 2 looks intact",
    )
    args = p.parse_args(argv)

    def run() -> None:
        report = recover_multifile(args.multifile, force=args.force)
        for line in report.details:
            print(line)
        print(
            f"files: {report.nfiles} intact: {report.files_intact} "
            f"recovered: {report.files_recovered} "
            f"bytes: {report.bytes_recovered}"
        )

    return _run(run)


def main_verify(argv: list[str] | None = None) -> int:
    """``sionverify [--deep] [--readers M] [--engine NAME] [--inject WHAT] MULTIFILE``

    Check the consistency of a multifile set.  ``--deep`` additionally
    validates shadow headers against metablock 2; ``--readers M``
    executes a real ``M``-reader partitioned read and cross-checks it
    against the serial global view, on the SPMD engine picked by
    ``--engine`` (default ``bulk``; ``proc`` reads on real cores).
    ``--inject lose-file=K`` runs a *non-destructive what-if* instead:
    the tool reports whether losing physical file ``K`` entirely would
    still be recoverable (i.e. the set was written with ``buddy=True``
    and file ``K``'s replica is fully intact).  Returns 0 when the set
    verifies (or the injected loss is survivable), 2 when it does not,
    1 on I/O errors.

    Example: ``sionverify --deep --readers 4 --engine proc out.sion``;
    ``sionverify --inject lose-file=1 out.sion``.
    """
    p = argparse.ArgumentParser(
        prog="sionverify",
        description="Check the consistency of a SION multifile set.",
    )
    p.add_argument("multifile", help="path of physical file 0")
    p.add_argument(
        "--deep",
        action="store_true",
        help="also validate shadow headers against metablock 2",
    )
    p.add_argument(
        "--readers",
        type=int,
        default=None,
        metavar="M",
        help="also execute an M-reader partitioned read and cross-check "
        "it against the serial global view",
    )
    p.add_argument(
        "--engine",
        default="bulk",
        metavar="NAME",
        help="SPMD engine of the --readers read (threads|bulk|proc; "
        "default: bulk)",
    )
    p.add_argument(
        "--inject",
        default=None,
        metavar="WHAT",
        help="non-destructive what-if: 'lose-file=K' reports whether the "
        "set would survive losing physical file K (buddy replica intact)",
    )
    args = p.parse_args(argv)

    def run() -> None:
        if args.inject is not None:
            kind, _, value = args.inject.partition("=")
            if kind != "lose-file" or not value.lstrip("-").isdigit():
                raise SionUsageError(
                    f"--inject expects lose-file=K, got {args.inject!r}"
                )
            report = assess_loss(args.multifile, int(value))
        else:
            report = verify_multifile(
                args.multifile,
                deep=args.deep,
                readers=args.readers,
                engine=args.engine,
            )
        print(format_report(report))
        if not report.ok:
            raise SystemExit(2)

    try:
        return _run(run)
    except SystemExit as exc:
        return int(exc.code or 0)


def main_cat(argv: list[str] | None = None) -> int:
    """``sioncat MULTIFILE RANK [--readers M]``

    Stream one logical task-local file to stdout; with ``--readers M``,
    ``RANK`` is instead a reader index of an ``M``-reader partitioned
    read and that reader's whole contiguous slice is streamed.  Returns
    0 on success, 1 (message on stderr) on bad ranks or a damaged set.

    Example: ``sioncat out.sion 2 --readers 4 > slice2.bin``.
    """
    p = argparse.ArgumentParser(
        prog="sioncat",
        description="Stream one logical task-local file to stdout.",
    )
    p.add_argument("multifile", help="path of physical file 0")
    p.add_argument(
        "rank",
        type=int,
        help="logical file (global rank) to print; with --readers M, the "
        "reader index whose whole slice is printed",
    )
    p.add_argument(
        "--readers",
        type=int,
        default=None,
        metavar="M",
        help="treat RANK as a reader of an M-reader partitioned read and "
        "stream its contiguous slice of task streams",
    )
    args = p.parse_args(argv)
    if args.readers is not None:
        return _run(lambda: cat_reader(args.multifile, args.rank, args.readers))
    return _run(lambda: cat_rank(args.multifile, args.rank))


def _run(fn) -> int:
    try:
        fn()
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
