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
  whenever the application calls ``flush_shadow``).  A header reaches
  the store in a later call than the bytes it counts, so an interrupted
  write never leaves a header vouching for bytes that are not there.
  A flush is *durable* only once every physical file of the set exists
  (its creating open has written metablock 1): before that a missing
  file makes the set unrecoverable, even for flushes that returned.
  Then it depends on the mode: in direct mode once the task's
  ``flush_shadow`` returns; in collective mode ``flush_shadow`` only
  stages the header with the task's collector, and it is durable once
  the collector's next wave (``flush_collective`` or the close) has
  written it — a sender may return from ``flush_collective`` before its
  collector's wave write.  :func:`recover_multifile` scans those
  headers, rebuilds metablock 2 *in place*, and patches the file back to
  a readable state.  Cheap (32 bytes per chunk), but it needs the file
  itself to survive.
* **Buddy replicas** (``paropen(..., buddy=True)``): every write was
  mirrored to a replica hosted on the partner group's name stem
  (:func:`~repro.sion.buddy.buddy_path`).  :func:`recover_multifile`
  rebuilds a **lost or torn physical file byte-identically** by copying
  its replica back — the byte ranges the replica's metablocks describe,
  never the alignment padding between them.  Costs 2x the written bytes,
  survives the loss of an entire physical file.

The decision per physical file, by the status the set loader
(:func:`~repro.sion.loader.iter_set`) gives it (also rendered as a table
in ``docs/RESILIENCE.md``):

=========================  =======================  ========================
primary file status        buddy replica intact     action
=========================  =======================  ========================
intact                     (any)                    nothing to do
missing / bad metablock 1  yes                      byte-copy from replica
/ disagrees with file 0
missing / bad metablock 1  no                       unrecoverable
/ disagrees with file 0
bad metablock 2            yes                      byte-copy from replica
bad metablock 2            no, shadow headers       in-place shadow rebuild
bad metablock 2            no, no shadow headers    unrecoverable
=========================  =======================  ========================

A fully intact replica is preferred over a shadow rebuild because the
copy is byte-identical to the unfaulted write, whereas a shadow rebuild
can only vouch for bytes up to each chunk's last shadow flush.
Unrecoverable states raise :class:`~repro.errors.SionMetadataLostError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends.base import Backend
from repro.backends.localfs import LocalBackend
from repro.errors import SionMetadataLostError
from repro.sion.columns import ndarray_of
from repro.sion.constants import (
    BUDDY_SUFFIX,
    FLAG_BUDDY,
    FLAG_SHADOW,
    SHADOW_HEADER_SIZE,
)
from repro.sion.format import Metablock1, Metablock2
from repro.sion.layout import ChunkLayout
from repro.sion.loader import (
    BAD_MB2,
    INTACT,
    FileLoad,
    iter_set,
    load_file,
    qualify_replica,
    read_shadow_headers,
)
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

    Loads the set once, file by file (:func:`~repro.sion.loader.iter_set`),
    and applies the cheapest sufficient repair per file status (see the module
    docstring's decision table): nothing, a byte-identical restore from
    the file's buddy replica, or an in-place metablock-2 reconstruction
    from shadow headers.

    Parameters
    ----------
    path:
        Path of physical file 0.  If that file itself is lost, the set
        geometry is bootstrapped from the buddy replica hosted at
        ``path + ".buddy"`` (buddy-mode sets keep file ``nfiles - 1``'s
        replica there, and every file's metablock 1 carries the set-wide
        geometry fields), and file 0 is restored first.
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
        buddy replica (see the decision table), or file 0 is lost and no
        readable replica names the set geometry.
    """
    backend = backend if backend is not None else LocalBackend()
    report = RecoveryReport()
    head, tmap, files = iter_set(backend, path)
    first = 0
    if tmap is None:
        head.close()
        _restore_head(path, head, backend, report)
        head, tmap, files = iter_set(backend, path)
        first = 1
    report.nfiles = tmap.nfiles if tmap is not None else 1
    # File by file, as the loader reaches them: the first unrecoverable
    # file ends the run before a file past it is probed.
    for filenum, f in files:
        f.close()  # a repair reopens the one file it rewrites
        if filenum >= first:
            _recover_one(path, filenum, f, report.nfiles, backend, report, force)
    head.close()
    return report


def _restore_head(
    path: str, head: FileLoad, backend: Backend, report: RecoveryReport
) -> None:
    """Restore a lost or unreadable file 0 from its buddy replica.

    Every physical file (and every replica) carries the set-wide
    ``nfiles``/flags fields in its metablock 1, so the replica hosted on
    file 0's stem (``path + ".buddy"`` — the replica of file
    ``nfiles - 1``, but geometry-wise interchangeable) names the set.
    """
    fallback = load_file(backend, path + BUDDY_SUFFIX)
    fallback.close()
    if fallback.mb1 is None:
        raise SionMetadataLostError(
            f"{head.finding}; and {fallback.finding}, so no replica names "
            "the set geometry; data is unrecoverable"
        )
    report.add(
        f"{path}: {head.status}; set geometry bootstrapped from the buddy "
        f"replica {fallback.path}"
    )
    if not _restore_from_buddy(path, head.path, 0, fallback.mb1.nfiles, backend, report):
        raise SionMetadataLostError(
            f"{head.finding}; no intact buddy replica exists, data is unrecoverable"
        )


def _recover_one(
    base: str,
    filenum: int,
    f: FileLoad,
    nfiles: int,
    backend: Backend,
    report: RecoveryReport,
    force: bool,
) -> None:
    """Apply the decision table to one physical file, by its load status."""
    if f.status == INTACT and not force:
        report.files_intact += 1
        report.add(f"{f.path}: metablock 2 intact, nothing to do")
        return
    if f.status not in (INTACT, BAD_MB2):
        # Missing, unreadable or foreign metablock 1: only a replica helps.
        if not _restore_from_buddy(base, f.path, filenum, nfiles, backend, report):
            raise SionMetadataLostError(
                f"{f.finding}; no intact buddy replica exists, data is unrecoverable"
            )
        return

    # Torn close: prefer the byte-identical replica, then the shadow
    # chain.  ``force`` is a shadow-chain validation request, so it
    # skips the replica shortcut on purpose.
    if f.mb1.flags & FLAG_BUDDY and not force:
        if _restore_from_buddy(base, f.path, filenum, nfiles, backend, report):
            return
    if not f.mb1.flags & FLAG_SHADOW:
        raise SionMetadataLostError(
            f"{f.path}: metablock 2 missing and the file was written "
            "without shadow headers; data is unrecoverable"
        )
    _rebuild_from_shadows(f.path, f.mb1, backend, report)


def _restore_from_buddy(
    base: str,
    fpath: str,
    filenum: int,
    nfiles: int,
    backend: Backend,
    report: RecoveryReport,
) -> bool:
    """Byte-copy ``fpath`` back from its buddy replica, if it qualifies
    (:func:`~repro.sion.loader.qualify_replica`).  Only the byte ranges
    the replica's metablocks describe are moved (:func:`_copy_described`),
    through the handle the replica check opened.  Returns True on
    success, False when no qualifying replica exists (callers then fall
    back or raise).
    """
    rpath, replica = qualify_replica(base, filenum, nfiles, backend)
    if isinstance(replica, str):
        return False
    try:
        copied = _copy_described(backend, replica, fpath)
    finally:
        replica.close()
    mb2 = replica.mb2
    report.files_recovered += 1
    report.files_rebuilt_from_buddy += 1
    sizes = ndarray_of(mb2.sizes)
    nonzero = sizes != 0
    data_bytes = int(sizes.sum())
    owner = np.repeat(np.arange(mb2.ntasks_local), mb2.nblocks())
    report.tasks_recovered += len(np.unique(owner[nonzero]))
    report.blocks_recovered += int(nonzero.sum())
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
    counts = mb2.nblocks()
    written = ndarray_of(mb2.sizes)
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


def _copy_described(backend: Backend, replica: FileLoad, dst: str) -> int:
    """Rebuild ``dst`` from the described ranges of an intact ``replica``
    load; returns bytes moved.

    One ``gather_read`` -> ``scatter_write`` pair per ``_COPY_CHUNK`` of
    payload (:func:`_copy_batches`), so peak memory stays bounded and the
    padding between chunks is never read, written, or materialised: the
    restored file has the replica's size and content, as holes where the
    replica has holes.
    """
    size = backend.file_size(replica.path)
    copied = 0
    rdst = backend.open(dst, "w+b")
    try:
        for batch in _copy_batches(replica.mb1, replica.mb2, size):
            copied += _copy_batch(replica.raw, rdst, batch)
        rdst.flush()
    finally:
        rdst.close()
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
        rows: list[list[int]] = []
        blocks_before = report.blocks_recovered
        for ltask in range(mb1.ntasks_local):
            sizes = _scan_task(raw, layout, ltask, file_size)
            rows.append(sizes if sizes else [0])
            if sizes:
                report.tasks_recovered += 1
                report.blocks_recovered += len(sizes)
                report.bytes_recovered += sum(sizes)
        write_metablock2(raw, layout, mb1, Metablock2(rows))
        report.files_recovered += 1
        report.add(
            f"{fpath}: rebuilt metablock 2 for {mb1.ntasks_local} tasks "
            f"({report.blocks_recovered - blocks_before} blocks)"
        )
    finally:
        raw.close()


def _scan_task(raw, layout: ChunkLayout, ltask: int, file_size: int) -> list[int]:
    """Walk a task's chunk chain, reading shadow headers until they stop.

    The header slots inside the file come in one vectored read
    (:func:`~repro.sion.loader.read_shadow_headers`).  The walk ends at
    the first missing, undecodable, or misattributed header (torn chain),
    and trailing zero-byte blocks — the open-but-unused current chunk —
    are trimmed.
    """
    sizes: list[int] = []
    for block, hdr in enumerate(read_shadow_headers(raw, layout, ltask, file_size)):
        if hdr is None or hdr.ltask != ltask or hdr.block != block:
            break
        sizes.append(hdr.written)
    # A trailing zero-byte block is just the open-but-unused current chunk.
    while len(sizes) > 1 and sizes[-1] == 0:
        sizes.pop()
    return sizes
