"""One set loader: how every reader finds a multifile's metadata.

The paper's multifile is a self-describing container (§3.1 / Fig. 2):
metablock 1 at the front of every physical file, metablock 2 at the end,
and the task -> file mapping in file 0.  :func:`load_set` opens each
physical file once, decodes both metablocks and checks every file
against file 0, recording one :class:`FileLoad` per file with a status:

=========================  ==================================================
status                     meaning
=========================  ==================================================
``intact``                 both metablocks decode and agree with file 0
``missing``                the physical file does not exist
``bad metablock 1``        metablock 1 (or file 0's task mapping) is unreadable
``disagrees with file 0``  its ``filenum``, ``nfiles``, ``ntasks_global``,
                           ``flags``, ``fsblksize`` or stored global ranks
                           contradict file 0 and its mapping
``bad metablock 2``        metablock 2 is torn, corrupt, or describes more
                           than its chunks hold (:func:`load_metablock2`)
=========================  ==================================================

Every reader — ``paropen(..., "r")``, the serial global view,
``open_rank`` and the read gateway — calls :meth:`SetLoad.require_intact`,
which raises the first finding as a :class:`~repro.errors.SionFormatError`
naming the file, and keeps the handles of an intact load.  ``sionverify``
reports every finding of the files the load reached; recovery triages
file by file as :func:`iter_set` loads them, and :func:`qualify_replica`
is the same check applied to one buddy replica.
:func:`read_shadow_headers` is the one reader of a task's shadow chain.

A load costs what is on disk, not what file 0 claims: :func:`load_set`
stops at the first missing file and reports it, with the files after it
that it did not probe, as one finding.  A file 0 claiming 2^20 files of
a two-file set is refused after three files, not 2^20 probes (2^20
existence probes alone take seconds).  The stop holds for ``sionverify``
too: the findings of files after a missing one are reported once it is
restored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.backends.base import Backend, RawFile
from repro.errors import FileNotFoundSimError, SionFormatError, SionUsageError
from repro.sion.buddy import buddy_path
from repro.sion.columns import ndarray_of
from repro.sion.constants import FLAG_SHADOW, MAPPING_CUSTOM, SHADOW_HEADER_SIZE
from repro.sion.format import Metablock1, Metablock2, ShadowHeader
from repro.sion.layout import ChunkLayout
from repro.sion.mapping import TaskMapping, physical_path

INTACT = "intact"
MISSING = "missing"
BAD_MB1 = "bad metablock 1"
DISAGREES = "disagrees with file 0"
BAD_MB2 = "bad metablock 2"

#: Checks an intact file passes, as ``sionverify`` counts them: filenum,
#: set geometry (``nfiles``, ``ntasks_global``, ``flags``), ``fsblksize``,
#: stored global ranks, metablock 2's task count and its block bounds.
CHECKS_PER_FILE = 6

#: What each store raises for a path that does not exist.
_NOT_FOUND = (FileNotFoundError, FileNotFoundSimError)


@dataclass
class FileLoad:
    """One physical file as the loader found it.

    ``raw`` is the handle the loader opened; it stays open only while the
    status is intact, and the caller that keeps the load closes it.
    ``mb1`` survives a disagreement or a bad metablock 2 (recovery
    rebuilds from it); ``layout`` and ``mb2`` are set once intact.
    """

    path: str
    status: str = INTACT
    reason: str = ""
    raw: RawFile | None = None
    mb1: Metablock1 | None = None
    layout: ChunkLayout | None = None
    mb2: Metablock2 | None = None

    @property
    def finding(self) -> str:
        """``"<path>: <status>: <reason>"`` — what a strict reader raises."""
        return f"{self.path}: {self.status}: {self.reason}"

    def fail(self, status: str, reason: str) -> "FileLoad":
        """Record why the file is not intact and release its handle."""
        self.status, self.reason = status, reason
        self.close()
        return self

    def close(self) -> None:
        """Release the handle (idempotent)."""
        if self.raw is not None:
            self.raw.close()
            self.raw = None


@dataclass(frozen=True)
class SetLoad:
    """The files of one multifile set, loaded and checked once.

    ``files`` are in file order: every physical file, or for the
    task-local view file 0 and the task's file.  ``mapping`` is ``None``
    when file 0 gave no usable geometry (then ``files`` is file 0 alone).
    """

    path: str
    files: tuple[FileLoad, ...]
    mapping: TaskMapping | None = None

    @property
    def findings(self) -> list[str]:
        """Every file's finding, then a coverage finding if ranks are lost."""
        out = [f.finding for f in self.files if f.status != INTACT]
        if self.mapping is not None and len(self.files) == self.mapping.nfiles:
            # Agreeing files hold exactly their mapped ranks, so the ranks
            # they cover are counted, not collected.
            covered = sum(
                f.mb1.ntasks_local for f in self.files if f.status in (INTACT, BAD_MB2)
            )
            if covered != self.mapping.ntasks:
                out.append(
                    f"{self.path}: global ranks covered by the set are "
                    f"incomplete: {covered}/{self.mapping.ntasks}"
                )
        return out

    def require_intact(self) -> "SetLoad":
        """This load, or the first finding raised as a ``SionFormatError``
        (every handle released first)."""
        for f in self.files:
            if f.status != INTACT:
                self.close()
                raise SionFormatError(f.finding)
        return self

    def close(self) -> None:
        """Release every handle the load still holds."""
        for f in self.files:
            f.close()


def load_set(backend: Backend, path: str, rank: int | None = None) -> SetLoad:
    """Open the physical files of the set at ``path`` once and check them.

    File 0's metablock 1 gives the set geometry and the task mapping;
    every file must agree with it (see the module docstring).  With
    ``rank``, only file 0 and the file holding that task are loaded — the
    task-local view (paper Listing 4), which a damaged sibling does not
    concern.  The load stops at the first missing file: its finding
    names the files after it, which are not probed.  Never raises for a
    damaged set; the statuses say what is wrong (an out-of-range
    ``rank`` is a :class:`SionUsageError`).
    """
    head, tmap, loads = iter_set(backend, path, rank)
    if tmap is None:
        return SetLoad(path, (head,))
    files: list[FileLoad] = []
    try:
        for filenum, f in loads:
            files.append(f)
            if f.status == MISSING and filenum < tmap.nfiles - 1 and rank is None:
                f.reason += (
                    f"; the load stops here: files {filenum + 1}..{tmap.nfiles - 1} "
                    "are not probed"
                )
                break
    except BaseException:
        for f in files:
            f.close()
        raise
    return SetLoad(path, tuple(files), tmap)


def iter_set(
    backend: Backend, path: str, rank: int | None = None
) -> tuple[FileLoad, TaskMapping | None, Iterator[tuple[int, FileLoad]]]:
    """File 0, the task mapping, and the set's files loaded one at a time.

    The iterator yields ``(filenum, load)`` in file order, file 0 (the
    returned ``head``) first, each checked as :func:`load_set` checks it;
    it yields nothing when the mapping is ``None``.  The consumer closes
    what it takes, and may stop early: a file is opened only when it is
    reached.
    """
    head, tmap = load_head(backend, path)
    if tmap is None:
        return head, None, iter(())
    if rank is None:
        wanted: Sequence[int] = range(tmap.nfiles)
    elif 0 <= rank < tmap.ntasks:
        wanted = sorted({0, tmap.files[rank]})
    else:
        head.close()
        raise SionUsageError(f"rank {rank} out of range ({tmap.ntasks} tasks)")
    return head, tmap, _checked(backend, path, head, tmap, wanted)


def _checked(
    backend: Backend, path: str, head: FileLoad, tmap: TaskMapping, wanted: Sequence[int]
) -> Iterator[tuple[int, FileLoad]]:
    fields = ("nfiles", "ntasks_global", "flags", "fsblksize")
    geometry = [(n, getattr(head.mb1, n)) for n in fields]
    for filenum in wanted:
        f = head if filenum == 0 else load_file(
            backend, physical_path(path, filenum), [("filenum", filenum), *geometry]
        )
        # One column compare per file: the stored global ranks are exactly
        # the mapping's members of the file, in local-rank order.
        if f.status in (INTACT, BAD_MB2) and f.mb1.globalranks != tmap.tasks_of_file(filenum):
            f.fail(DISAGREES, "stored global ranks disagree with the mapping")
        yield filenum, f


def load_head(backend: Backend, path: str) -> tuple[FileLoad, TaskMapping | None]:
    """File 0 of the set at ``path`` and the task mapping it stores.

    The mapping is ``None`` when file 0 gives no usable geometry (an
    unreadable metablock 1, a task count file 0 does not bear out, or an
    invalid mapping table); then file 0's status says why.  The caller
    closes the load.
    """
    head = load_file(backend, path, (("filenum", 0),))
    if head.mb1 is None:
        return head, None
    mb1 = head.mb1
    if mb1.mapping_kind != MAPPING_CUSTOM and mb1.nfiles >= 1:
        # Both standard kinds put ceil(ntasks / nfiles) tasks in file 0, so
        # ntasks_global is bounded by what file 0 holds before a mapping
        # is sized by it (a custom table is read from the file, which
        # bounds it already).
        share = -(-mb1.ntasks_global // mb1.nfiles)
        if share != mb1.ntasks_local:
            head.fail(
                BAD_MB1,
                f"invalid task mapping: {mb1.ntasks_global} tasks in {mb1.nfiles} "
                f"files put {share} in file 0, which holds {mb1.ntasks_local}",
            )
            return head, None
    try:
        tmap = TaskMapping.from_kind_code(
            mb1.ntasks_global, mb1.nfiles, mb1.mapping_kind, mb1.mapping_table
        )
    except SionUsageError as exc:
        head.fail(BAD_MB1, f"invalid task mapping: {exc}")
        return head, None
    return head, tmap


def load_file(
    backend: Backend, path: str, expect: Sequence[tuple[str, int]] = ()
) -> FileLoad:
    """Open one physical file once and decode both of its metablocks.

    ``expect`` lists the metablock-1 fields the file must carry, as
    ``(name, value)`` pairs; the first mismatch is a disagreement.
    """
    f = FileLoad(path)
    try:
        f.raw = backend.open(path, "rb")
    except _NOT_FOUND:
        return f.fail(MISSING, "no such file")
    try:
        return _decode(f, expect)
    except BaseException:
        f.close()  # a store error mid-decode: the caller never sees the handle
        raise


def _decode(f: FileLoad, expect: Sequence[tuple[str, int]]) -> FileLoad:
    """Both metablocks of the open file ``f``, in status order."""
    try:
        f.mb1 = Metablock1.decode_from(f.raw)
    except SionFormatError as exc:
        return f.fail(BAD_MB1, str(exc))
    for name, want in expect:
        got = getattr(f.mb1, name)
        if got != want:
            return f.fail(DISAGREES, f"{name} is {got}, expected {want}")
    f.layout = ChunkLayout.from_metablock1(f.mb1)
    try:
        f.mb2 = load_metablock2(f.raw, f.path, f.mb1, f.layout)
    except SionFormatError as exc:
        return f.fail(BAD_MB2, str(exc))
    return f


def qualify_replica(
    base: str, filenum: int, nfiles: int, backend: Backend
) -> tuple[str, FileLoad | str]:
    """The buddy replica of file ``filenum``: its path, and its intact
    load (handle open; the caller closes it) if it qualifies for a
    byte-copy restore, else the finding that disqualifies it.

    A replica qualifies when :func:`load_file` finds it intact as file
    ``filenum`` of ``nfiles`` — restoring a half-written replica would
    trade one damaged copy for another.  Non-destructive: the one test
    both :func:`~repro.sion.recovery.recover_multifile` and ``sionverify
    --inject lose-file=K`` apply.
    """
    rpath = buddy_path(base, filenum, nfiles)
    replica = load_file(backend, rpath, (("filenum", filenum), ("nfiles", nfiles)))
    return rpath, replica if replica.status == INTACT else replica.finding


def load_metablock2(
    raw: RawFile, path: str, mb1: Metablock1, layout: ChunkLayout
) -> Metablock2:
    """Decode ``path``'s metablock 2 and reject a block table its chunks
    cannot hold.

    The table must list every task of metablock 1, every block must fit
    its chunk's data capacity (the aligned size, minus the shadow header
    under ``FLAG_SHADOW``), and the block rows must end at or before
    metablock 2.  Otherwise a read of an overstated block would silently
    return padding and the next task's bytes.  The check is arithmetic
    only: no I/O beyond the decode.
    """
    mb2 = Metablock2.decode_from(raw, mb1.metablock2_offset)
    if mb2.ntasks_local != mb1.ntasks_local:
        raise SionFormatError(
            f"{path}: metablock 2 lists {mb2.ntasks_local} task(s), "
            f"metablock 1 {mb1.ntasks_local}"
        )
    header = SHADOW_HEADER_SIZE if mb1.flags & FLAG_SHADOW else 0
    counts = mb2.nblocks()
    # One pass over the flat column, each entry against its task's data
    # capacity; a stored size of 2^63 or more decodes negative and is over.
    owner = np.repeat(np.arange(len(counts)), counts)
    sizes = ndarray_of(mb2.sizes)
    capacity = ndarray_of(layout.aligned_sizes) - header
    over = np.flatnonzero((sizes < 0) | (sizes > capacity[owner]))
    if over.size:
        t = int(owner[over[0]])
        row = sizes[mb2.bounds[t] : mb2.bounds[t + 1]].view(np.uint64)
        block = int(row.argmax())
        raise SionFormatError(
            f"{path}: task {t} block {block} records {int(row[block])} bytes, "
            f"over its chunk's data capacity {int(capacity[t])}"
        )
    longest = int(counts.argmax()) if counts.size else 0
    nblocks = int(counts[longest]) if counts.size else 0
    end = layout.end_of_blocks(nblocks)
    if end > mb1.metablock2_offset:
        raise SionFormatError(
            f"{path}: task {longest} block {nblocks - 1} ends at {end} (the end "
            f"of block row {nblocks - 1}), past metablock 2 at {mb1.metablock2_offset}"
        )
    return mb2


def read_shadow_headers(
    raw: RawFile, layout: ChunkLayout, ltask: int, file_size: int, nblocks: int | None = None
) -> list[ShadowHeader | None]:
    """Task ``ltask``'s shadow header slots, block 0 on, in one ``gather_read``.

    The slots read are those whose 32-byte header lies inside the file's
    ``file_size`` bytes, at most ``nblocks`` of them; each decodes to a
    :class:`~repro.sion.format.ShadowHeader`, or ``None`` where the bytes
    are not one.  The one reader of shadow chains: recovery walks it
    until the chain breaks, ``sionverify --deep`` checks it against
    metablock 2.
    """
    stride, first = layout.block_capacity, layout.chunk_start(ltask, 0)
    nslots = max(0, (file_size - SHADOW_HEADER_SIZE - first) // stride + 1)
    if nblocks is not None:
        nslots = min(nslots, nblocks)
    if nslots == 0:
        return []
    pieces = raw.gather_read([(first + b * stride, SHADOW_HEADER_SIZE) for b in range(nslots)])
    return [ShadowHeader.decode(piece) for piece in pieces]
