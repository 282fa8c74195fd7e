"""Rebuilding damaged multifiles: shadow headers and buddy replicas.

If an application dies before the collective close — premature
termination, quota violation, a lost node — metablock 2 is never
written and the multifile cannot be read.  Worse, a whole physical file
of the set may be gone (node-local storage, a corrupted stripe).  Two
write-time options fund two recovery paths:

* **Shadow headers** (``paropen(..., shadow=True)``, paper §6): every
  chunk starts with a 32-byte :class:`~repro.sion.format.ShadowHeader`
  recording how many bytes of that chunk were written as of the last
  shadow flush (automatic at every block boundary, at close, and
  whenever the application calls ``flush_shadow``).
  :func:`recover_multifile` scans those headers, rebuilds metablock 2
  *in place*, and patches the file back to a readable state.  Cheap
  (32 bytes per chunk), but it needs the file itself to survive.
* **Buddy replicas** (``paropen(..., buddy=True)``): every write was
  mirrored to a replica hosted on the partner group's name stem
  (:func:`~repro.sion.buddy.buddy_path`).  :func:`recover_multifile`
  rebuilds a **lost or torn physical file byte-identically** by copying
  its replica back — the byte ranges the replica's metablocks describe,
  never the alignment padding between them.  Costs 2x the written bytes,
  survives the loss of an entire physical file.

The decision per physical file (also rendered as a table in
``docs/RESILIENCE.md``):

========================  =======================  =========================
primary file state        buddy replica intact     action
========================  =======================  =========================
metablock 2 intact        (any)                    nothing to do
missing / metablock 1     yes                      byte-copy from replica
unreadable
missing / metablock 1     no                       unrecoverable
unreadable
metablock 2 torn          yes                      byte-copy from replica
metablock 2 torn          no, shadow headers       in-place shadow rebuild
metablock 2 torn          no, no shadow headers    unrecoverable
========================  =======================  =========================

A fully intact replica is preferred over a shadow rebuild because the
copy is byte-identical to the unfaulted write, whereas a shadow rebuild
can only vouch for bytes up to each chunk's last shadow flush.
Unrecoverable states raise :class:`~repro.errors.SionMetadataLostError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.backends.base import Backend
from repro.backends.localfs import LocalBackend
from repro.errors import SionFormatError, SionMetadataLostError
from repro.sion.buddy import buddy_path
from repro.sion.constants import (
    BUDDY_SUFFIX,
    FLAG_BUDDY,
    FLAG_SHADOW,
    SHADOW_HEADER_SIZE,
)
from repro.sion.format import Metablock1, Metablock2, ShadowHeader
from repro.sion.layout import ChunkLayout
from repro.sion.mapping import physical_path
from repro.sion.openspec import write_metablock2

#: Chunked-copy granularity of a buddy restore (bounds peak memory).
_COPY_CHUNK = 1 << 20


@dataclass
class RecoveryReport:
    """Outcome of scanning (and repairing) one multifile set.

    One report covers every physical file of the set.  ``files_intact``
    counts files that needed nothing; ``files_recovered`` counts files
    repaired by *either* path, of which ``files_rebuilt_from_buddy``
    were restored by byte-copying their buddy replica.  The task/block/
    byte counters aggregate what the repairs brought back:
    ``bytes_recovered`` counts **logical data bytes** (recorded chunk
    payload, excluding metablocks and shadow headers) — the number the
    ``resilience`` benchmark suite pins against the written volume.
    ``details`` holds one human-readable line per action taken.
    """

    nfiles: int = 0
    files_intact: int = 0
    files_recovered: int = 0
    files_rebuilt_from_buddy: int = 0
    tasks_recovered: int = 0
    blocks_recovered: int = 0
    bytes_recovered: int = 0
    details: list[str] = field(default_factory=list)

    def add(self, line: str) -> None:
        """Append one detail line to the report."""
        self.details.append(line)


def recover_multifile(
    path: str, backend: Backend | None = None, force: bool = False
) -> RecoveryReport:
    """Repair every damaged physical file of the multifile set at ``path``.

    Walks all physical files and applies the cheapest sufficient repair
    per file (see the module docstring's decision table): nothing, a
    byte-identical restore from the file's buddy replica, or an in-place
    metablock-2 reconstruction from shadow headers.

    Parameters
    ----------
    path:
        Path of physical file 0.  If that file itself is lost, the set
        geometry is bootstrapped from the buddy replica hosted at
        ``path + ".buddy"`` (buddy-mode sets keep file ``nfiles - 1``'s
        replica there, and every file's metablock 1 carries the set-wide
        geometry fields).
    backend:
        Storage backend (default: local POSIX files).
    force:
        Re-derive metablock 2 from the shadow headers even for files
        whose metablock 2 looks intact — a way to validate the shadow
        chain end to end.

    Returns
    -------
    RecoveryReport
        What was intact, what was repaired, and how.

    Raises
    ------
    SionMetadataLostError
        A damaged file has neither a usable shadow chain nor an intact
        buddy replica (see the decision table).
    """
    backend = backend if backend is not None else LocalBackend()
    report = RecoveryReport()

    mb1_0 = _bootstrap_geometry(path, backend, report)
    report.nfiles = mb1_0.nfiles

    for filenum in range(mb1_0.nfiles):
        fpath = physical_path(path, filenum)
        _recover_one(path, fpath, filenum, mb1_0.nfiles, backend, report, force)
    return report


def _bootstrap_geometry(
    path: str, backend: Backend, report: RecoveryReport
) -> Metablock1:
    """Learn the set geometry, surviving the loss of physical file 0.

    Every physical file (and every replica) carries the set-wide
    ``nfiles``/flags fields in its metablock 1, so any readable copy
    suffices.  File 0 is tried first; a buddy-mode set falls back to the
    replica hosted on file 0's stem (``path + ".buddy"`` — the replica
    of file ``nfiles - 1``, but geometry-wise interchangeable).
    """
    try:
        raw0 = backend.open(path, "rb")
        try:
            return Metablock1.decode_from(raw0)
        finally:
            raw0.close()
    except Exception as primary_exc:  # noqa: BLE001 - any unreadable state
        fallback = path + BUDDY_SUFFIX
        if not backend.exists(fallback):
            raise primary_exc
        raw = backend.open(fallback, "rb")
        try:
            mb1 = Metablock1.decode_from(raw)
        finally:
            raw.close()
        report.add(
            f"{path}: unreadable; set geometry bootstrapped from the "
            f"buddy replica {fallback}"
        )
        return mb1


def _recover_one(
    base: str,
    fpath: str,
    filenum: int,
    nfiles: int,
    backend: Backend,
    report: RecoveryReport,
    force: bool,
) -> None:
    """Inspect one physical file and apply the decision table to it."""
    mb1: Metablock1 | None = None
    if backend.exists(fpath):
        raw = backend.open(fpath, "rb")
        try:
            mb1 = Metablock1.decode_from(raw)
        except SionFormatError:
            mb1 = None
        finally:
            raw.close()

    if mb1 is None:
        # Missing file (or unreadable metablock 1): only a replica helps.
        if not _restore_from_buddy(base, fpath, filenum, nfiles, backend, report):
            raise SionMetadataLostError(
                f"{fpath}: physical file is missing or unreadable and no "
                "intact buddy replica exists; data is unrecoverable"
            )
        return

    intact = False
    if mb1.metablock2_offset > 0:
        raw = backend.open(fpath, "rb")
        try:
            Metablock2.decode_from(raw, mb1.metablock2_offset)
            intact = True
        except SionFormatError:
            intact = False
        finally:
            raw.close()
    if intact and not force:
        report.files_intact += 1
        report.add(f"{fpath}: metablock 2 intact, nothing to do")
        return

    # Torn close: prefer the byte-identical replica, then the shadow
    # chain.  ``force`` is a shadow-chain validation request, so it
    # skips the replica shortcut on purpose.
    if mb1.flags & FLAG_BUDDY and not force:
        if _restore_from_buddy(base, fpath, filenum, nfiles, backend, report):
            return
    if not mb1.flags & FLAG_SHADOW:
        raise SionMetadataLostError(
            f"{fpath}: metablock 2 missing and the file was written "
            "without shadow headers; data is unrecoverable"
        )
    _rebuild_from_shadows(fpath, mb1, backend, report)


def qualify_replica(
    base: str, filenum: int, nfiles: int, backend: Backend
) -> tuple[str, tuple[Metablock1, Metablock2] | str]:
    """The buddy replica of file ``filenum``: its path, and its two
    metablocks if it qualifies for a byte-copy restore, else why not.

    The replica qualifies only when it exists, both of its metablocks
    decode, it describes the right file, and its metablock 2 lists as
    many tasks as its metablock 1 — restoring a half-written replica
    would trade one damaged copy for another.  Non-destructive: the one
    test both :func:`recover_multifile` and ``sionverify --inject
    lose-file=K`` apply.
    """
    rpath = buddy_path(base, filenum, nfiles)
    if not backend.exists(rpath):
        return rpath, f"buddy replica of file {filenum} is missing"
    raw = backend.open(rpath, "rb")
    try:
        try:
            mb1 = Metablock1.decode_from(raw)
            mb2 = Metablock2.decode_from(raw, mb1.metablock2_offset)
        except SionFormatError as exc:
            return rpath, f"buddy replica does not fully decode: {exc}"
    finally:
        raw.close()
    if mb1.filenum != filenum or mb1.nfiles != nfiles:
        return rpath, (
            f"replica describes file {mb1.filenum} of {mb1.nfiles}, "
            f"not file {filenum} of {nfiles}"
        )
    if mb2.ntasks_local != mb1.ntasks_local:
        return rpath, (
            f"replica's metablock 2 lists {mb2.ntasks_local} task(s), its "
            f"metablock 1 {mb1.ntasks_local}"
        )
    return rpath, (mb1, mb2)


def _restore_from_buddy(
    base: str,
    fpath: str,
    filenum: int,
    nfiles: int,
    backend: Backend,
    report: RecoveryReport,
) -> bool:
    """Byte-copy ``fpath`` back from its buddy replica, if it qualifies
    (:func:`qualify_replica`).  Only the byte ranges the replica's
    metablocks describe are moved (:func:`_copy_described`).  Returns
    True on success, False when no qualifying replica exists (callers
    then fall back or raise).
    """
    rpath, found = qualify_replica(base, filenum, nfiles, backend)
    if isinstance(found, str):
        return False
    mb1, mb2 = found
    copied = _copy_described(backend, rpath, fpath, mb1, mb2)
    report.files_recovered += 1
    report.files_rebuilt_from_buddy += 1
    data_bytes = 0
    blocks = 0
    tasks = 0
    for sizes in mb2.blocksizes:
        nonzero = [s for s in sizes if s]
        data_bytes += sum(nonzero)
        blocks += len(nonzero)
        if nonzero:
            tasks += 1
    report.tasks_recovered += tasks
    report.blocks_recovered += blocks
    report.bytes_recovered += data_bytes
    report.add(
        f"{fpath}: restored byte-identically from buddy replica {rpath} "
        f"({copied} bytes on store, {data_bytes} logical data bytes)"
    )
    return True


def _described_ranges(
    mb1: Metablock1, mb2: Metablock2, file_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, sizes)`` of every byte range the two metablocks describe.

    Metablock 1, then per task the written bytes of each chunk behind its
    shadow header, then metablock 2 through the end of the file.  In
    shadow mode a task may own a header in any block below the file's
    block count, even past its own last listed block — the zero-byte
    header of a chunk it opened and never used, which metablock 2 trims —
    so every such slot is taken.  Everything else in the file is
    alignment padding no writer ever touched.  Ranges come in file order
    of (task, block), empty ones dropped; the chunk offsets are one
    :meth:`~repro.sion.layout.ChunkLayout.chunk_starts` pass.
    """
    counts = np.fromiter(map(len, mb2.blocksizes), np.int64, mb2.ntasks_local)
    written = np.fromiter(
        itertools.chain.from_iterable(mb2.blocksizes), np.int64, int(counts.sum())
    )
    tasks = np.repeat(np.arange(len(counts)), counts)
    blocks = np.arange(len(written)) - np.repeat(np.cumsum(counts) - counts, counts)
    if mb1.flags & FLAG_SHADOW:
        nblocks = mb2.maxblocks
        grid = np.full((len(counts), nblocks), SHADOW_HEADER_SIZE, dtype=np.int64)
        grid[tasks, blocks] += written
        tasks, blocks = np.divmod(np.arange(grid.size), nblocks)
        written = grid.ravel()
    offsets = ChunkLayout.from_metablock1(mb1).chunk_starts(tasks, blocks)
    tail = file_size - mb1.metablock2_offset
    offsets = np.concatenate(([0], offsets, [mb1.metablock2_offset]))
    sizes = np.concatenate(([mb1.encoded_size], written, [tail]))
    keep = sizes > 0
    return offsets[keep], sizes[keep]


def _copy_batches(mb1: Metablock1, mb2: Metablock2, file_size: int):
    """The described ranges cut into batches of at most ``_COPY_CHUNK`` bytes.

    Batch ``k`` holds the described bytes ``[k, k + 1) * _COPY_CHUNK`` of
    the ranges laid end to end: a range crossing a batch edge is cut
    there.  Yields each batch as its ``(offset, size)`` request list.
    """
    offsets, sizes = _described_ranges(mb1, mb2, file_size)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # The union of range starts and batch edges (``np.union1d`` would import
    # ``numpy.ma`` on its first call: 18 ms, more than a restore takes).
    piece = np.sort(np.concatenate((starts, np.arange(0, ends[-1], _COPY_CHUNK))))
    piece = piece[np.diff(piece, prepend=-1) > 0]
    owner = np.searchsorted(starts, piece, side="right") - 1
    piece_off = offsets[owner] + piece - starts[owner]
    piece_len = np.diff(piece, append=ends[-1])
    batch = piece // _COPY_CHUNK
    cuts = np.flatnonzero(np.diff(batch)) + 1
    for off, n in zip(np.split(piece_off, cuts), np.split(piece_len, cuts)):
        yield list(zip(off.tolist(), n.tolist()))


def _copy_described(
    backend: Backend, src: str, dst: str, mb1: Metablock1, mb2: Metablock2
) -> int:
    """Rebuild ``dst`` from the described ranges of ``src``; returns bytes moved.

    One ``gather_read`` -> ``scatter_write`` pair per ``_COPY_CHUNK`` of
    payload (:func:`_copy_batches`), so peak memory stays bounded and the
    padding between chunks is never read, written, or materialised: the
    restored file has the replica's size and content, as holes where the
    replica has holes.
    """
    size = backend.file_size(src)
    copied = 0
    rsrc = backend.open(src, "rb")
    try:
        rdst = backend.open(dst, "w+b")
        try:
            for batch in _copy_batches(mb1, mb2, size):
                copied += _copy_batch(rsrc, rdst, batch)
            rdst.flush()
        finally:
            rdst.close()
    finally:
        rsrc.close()
    return copied


def _copy_batch(rsrc, rdst, batch: list[tuple[int, int]]) -> int:
    pieces = rsrc.gather_read(batch)
    return rdst.scatter_write(zip((off for off, _ in batch), pieces))


def _rebuild_from_shadows(
    fpath: str, mb1: Metablock1, backend: Backend, report: RecoveryReport
) -> None:
    """Reconstruct metablock 2 in place from the per-chunk shadow chain."""
    raw = backend.open(fpath, "r+b")
    try:
        layout = ChunkLayout.from_metablock1(mb1)
        file_size = backend.file_size(fpath)
        blocksizes: list[list[int]] = []
        blocks_before = report.blocks_recovered
        for ltask in range(mb1.ntasks_local):
            sizes = _scan_task(raw, layout, ltask, file_size)
            blocksizes.append(sizes if sizes else [0])
            if sizes:
                report.tasks_recovered += 1
                report.blocks_recovered += len(sizes)
                report.bytes_recovered += sum(sizes)
        write_metablock2(raw, layout, mb1, blocksizes)
        report.files_recovered += 1
        report.add(
            f"{fpath}: rebuilt metablock 2 for {mb1.ntasks_local} tasks "
            f"({report.blocks_recovered - blocks_before} blocks)"
        )
    finally:
        raw.close()


def _scan_task(raw, layout: ChunkLayout, ltask: int, file_size: int) -> list[int]:
    """Walk a task's chunk chain, reading shadow headers until they stop.

    Header addresses are computable locally, so each probe is one
    positioned read — the scan never touches the file pointer.  The walk
    ends at the first missing, undecodable, or misattributed header
    (torn chain), and trailing zero-byte blocks — the open-but-unused
    current chunk — are trimmed.
    """
    sizes: list[int] = []
    block = 0
    while True:
        start = layout.chunk_start(ltask, block)
        if start + SHADOW_HEADER_SIZE > file_size:
            break
        hdr = ShadowHeader.decode(raw.pread(start, SHADOW_HEADER_SIZE))
        if hdr is None or hdr.ltask != ltask or hdr.block != block:
            break
        sizes.append(hdr.written)
        block += 1
    # A trailing zero-byte block is just the open-but-unused current chunk.
    while len(sizes) > 1 and sizes[-1] == 0:
        sizes.pop()
    return sizes
