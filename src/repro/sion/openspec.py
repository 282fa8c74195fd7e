"""One open pipeline: ``OpenSpec`` -> one plan per file and wave -> handles.

The paper's multifile is a *portable container*: all metadata lives in
the file, not in the job, so any consumer — parallel, serial, collective,
hybrid, or a differently sized reader world — can come back later.  This
module is the single pipeline behind every entry point:

* :class:`OpenSpec` — a validated, immutable description of *what* to
  open (path, mode, chunk geometry, mapping, aggregation, compression,
  shadow headers, partitioned-read opt-in).  It rejects contradictory
  option combinations up front with :class:`~repro.errors.SionUsageError`,
  identically for every entry point, before any file is touched.
* :func:`compile_write_plan` — the collective write agreement (paper
  Listing 1, metadata half).  Each per-file master turns the chunk sizes
  it gathers into one immutable :class:`WritePlan` — metablock 1, the
  chunk layout, the physical and replica paths, the flags and the
  resolved aggregation degree — creates the file, and broadcasts the
  plan.  A rank's plan is that object plus its rank in the file's
  communicator (its local rank).
* :func:`compile_read_plan` — rank 0 loads the set once
  (:func:`~repro.sion.loader.load_set`: every physical file opened once
  and checked against file 0) into a :class:`ReadPlan` (the task mapping
  plus per-file layouts and block tables) and broadcasts it.  A reader's
  slice of writer streams is a ``(start, count)`` range into it; the read
  gateway indexes the same object.
* :func:`open_read` turns a read plan into a :class:`SionReadFile`;
  :func:`repro.sion.parallel.open_access` is the entry that dispatches
  both modes.

**Replay.**  Under the bulk engine a rank body re-runs from the top each
time a collective it parked on completes.  Every value an open derives is
a logged collective or ``exec_once`` result, or an O(1) index into one —
a master plans its file inside ``exec_once``, every other rank receives
the plan through the bcast — so a re-executed rank rebuilds its handle
and nothing else.

Every read is a **partitioned read**: a reader world of any size ``m``
over an ``n``-writer multifile, each reader assigned a contiguous slice
of writer task streams (:class:`~repro.sion.mapping.ReadPartition`); a
matched read is the plan with ``m == n``.  The read executor opens the
slice directly (one replay-guarded handle per touched file) or through
one collector prefetch wave (:func:`~repro.sion.collective.prefetch_read`),
and either way returns a :class:`SionReadFile` — the
:class:`~repro.sion.readwrite.PartitionStream` cursor over the slice —
on every SPMD engine, byte-identical to an ``n``-rank read of the file.

Physical handles — direct-mode ones and collectors' — are routed through
:class:`ReplayGuardedFile`, so instrumented backend telemetry is
deterministic under the bulk engine's memoized replay (each physical
call executes exactly once per rank; replays return the logged result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, NamedTuple, Sequence

from repro.backends.base import Backend, RawFile
from repro.errors import SionUsageError
from repro.sion.buddy import MirrorRawFile, buddy_path
from repro.sion.constants import (
    FLAG_BUDDY,
    FLAG_COMPRESS,
    FLAG_SHADOW,
    MAPPING_CUSTOM,
)
from repro.sion.format import Metablock1, Metablock2
from repro.sion.layout import ChunkLayout
from repro.sion.loader import SetLoad, load_set
from repro.sion.mapping import ReadPartition, TaskMapping, physical_path
from repro.sion.readwrite import PartitionStream, TaskStream


# ---------------------------------------------------------------------------
# OpenSpec: the validated, immutable description of an open request.


class _OpenFields(NamedTuple):
    path: str
    mode: str
    chunksize: int | None = None
    chunksizes: tuple[int, ...] | None = None
    fsblksize: int | None = None
    nfiles: int | None = None
    mapping: str | tuple[int, ...] | None = None
    compress: bool = False
    shadow: bool = False
    buddy: bool = False
    collectsize: int | None = None
    collectors: int | None = None
    partitioned: bool = False


#: Write-only options a read spec must leave unset (in message order), and
#: their values when none is given: fields 2..9 of an :class:`OpenSpec`.
_GEOMETRY = ("chunksize", "chunksizes", "fsblksize", "nfiles", "mapping")
_FLAGS = ("compress", "shadow", "buddy")
_UNSET = (None, None, None, None, None, False, False, False)


class OpenSpec(_OpenFields):
    """What to open, validated once, shared by every entry point.

    Write mode describes the geometry to create (``chunksize`` for the
    collective opens where every rank states its own size, or
    ``chunksizes`` for the serial creator that states all of them);
    read mode must *not* prescribe geometry — the multifile itself is
    authoritative — so any such option is rejected as contradictory.

    Every contradictory combination (both ``collectsize`` and
    ``collectors``, geometry options in read mode, ``partitioned`` in
    write mode, ...) raises :class:`~repro.errors.SionUsageError` at
    construction time — identically for every entry point, before any
    file is touched.  A spec is a named tuple: every rank builds one each
    time the bulk engine re-executes its open, so it must cost next to
    nothing.

    Example::

        spec = OpenSpec.for_paropen(path="/out.sion", mode="r",
                                    partitioned=True)
        handle = open_access(spec, comm, backend)
    """

    __slots__ = ()

    def __init__(self, *fields: Any, **named: Any) -> None:
        """Validate the fields the named tuple was just built from."""
        if self.mode not in ("r", "w"):
            raise SionUsageError(f"mode must be 'r' or 'w', got {self.mode!r}")
        if self.collectsize is not None:
            if self.collectors is not None:
                raise SionUsageError(
                    "pass either collectsize or collectors, not both"
                )
            if self.collectsize < 1:
                raise SionUsageError(
                    f"collectsize must be >= 1, got {self.collectsize}"
                )
        if self.collectors is not None and self.collectors < 1:
            raise SionUsageError(f"collectors must be >= 1, got {self.collectors}")
        if self.fsblksize is not None and self.fsblksize < 1:
            raise SionUsageError(f"fsblksize must be positive: {self.fsblksize}")
        if self.nfiles is not None and self.nfiles < 1:
            raise SionUsageError(f"nfiles must be >= 1, got {self.nfiles}")
        if self.mode == "r":
            if self[2:10] != _UNSET:
                given = [n for n in _GEOMETRY if getattr(self, n) is not None]
                given += [n for n in _FLAGS if getattr(self, n)]
                if given:
                    raise SionUsageError(
                        f"{given[0]} contradicts read mode: the multifile's own "
                        "metadata is authoritative for its geometry and flags"
                    )
            return
        if self.partitioned:
            raise SionUsageError(
                "partitioned access applies to read mode only; a write "
                "world always owns one stream per task"
            )
        if self.chunksizes is not None:
            if self.chunksize is not None:
                raise SionUsageError(
                    "pass either chunksize (per-rank collective open) or "
                    "chunksizes (serial creation), not both"
                )
            if not self.chunksizes:
                raise SionUsageError("serial write requires the per-task chunk sizes")
            if min(self.chunksizes) < 0:
                raise SionUsageError("chunk sizes must be non-negative")
        elif self.chunksize is None or self.chunksize < 0:
            raise SionUsageError("write mode requires a non-negative chunksize")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def for_paropen(
        cls,
        path: str,
        mode: str,
        *,
        chunksize: int | None = None,
        fsblksize: int | None = None,
        nfiles: int = 1,
        mapping: "str | list[int] | tuple[int, ...]" = "blocked",
        compress: bool = False,
        shadow: bool = False,
        buddy: bool = False,
        collectsize: int | None = None,
        collectors: int | None = None,
        partitioned: bool = False,
    ) -> "OpenSpec":
        """Build a spec from ``paropen``'s legacy keyword surface.

        The legacy defaults (``nfiles=1``, ``mapping="blocked"``) are
        normalized away in read mode — they were never consulted there —
        while any *non-default* geometry option in read mode is a
        contradiction the validator rejects.
        """
        if mode == "r":
            if nfiles == 1:
                nfiles = None  # type: ignore[assignment]
            if mapping == "blocked":
                mapping = None  # type: ignore[assignment]
        if isinstance(mapping, list):
            mapping = tuple(mapping)
        # Positional, in field order: every rank builds this spec on every
        # replay of its open, and keywords would cost twice as much.
        return cls(
            path, mode, chunksize, None, fsblksize, nfiles, mapping,
            compress, shadow, buddy, collectsize, collectors, partitioned,
        )

    @classmethod
    def for_serial(
        cls,
        path: str,
        mode: str,
        *,
        chunksizes: "Sequence[int] | None" = None,
        fsblksize: int | None = None,
        nfiles: int = 1,
        mapping: "str | list[int] | tuple[int, ...]" = "blocked",
    ) -> "OpenSpec":
        """Build a spec from the serial ``open`` surface (Listing 3/5)."""
        if mode == "r":
            if nfiles == 1:
                nfiles = None  # type: ignore[assignment]
            if mapping == "blocked":
                mapping = None  # type: ignore[assignment]
        if mode == "w" and not chunksizes:
            raise SionUsageError("serial write requires the per-task chunk sizes")
        if isinstance(mapping, list):
            mapping = tuple(mapping)
        return cls(
            path=path,
            mode=mode,
            chunksizes=tuple(chunksizes) if chunksizes is not None else None,
            fsblksize=fsblksize,
            nfiles=nfiles,
            mapping=mapping,
        )

    # -- normalized views ------------------------------------------------------

    @property
    def effective_nfiles(self) -> int:
        """The physical file count with the default (1) applied."""
        return self.nfiles if self.nfiles is not None else 1

    @property
    def effective_mapping(self) -> "str | list[int]":
        """The task→file mapping with the default (``"blocked"``) applied."""
        if self.mapping is None:
            return "blocked"
        if isinstance(self.mapping, tuple):
            return list(self.mapping)
        return self.mapping


def resolve_collectsize(
    collectsize: int | None, collectors: int | None, ntasks: int
) -> int | None:
    """Normalize the two spellings of the aggregation degree.

    ``collectsize`` is the number of tasks per collector group (SIONlib's
    ``collsize``); ``collectors`` asks for a total collector count and
    resolves to ``ceil(ntasks / collectors)``.  ``None`` (neither given)
    selects direct mode.
    """
    if collectsize is not None and collectors is not None:
        raise SionUsageError("pass either collectsize or collectors, not both")
    if collectors is not None:
        if collectors < 1:
            raise SionUsageError(f"collectors must be >= 1, got {collectors}")
        collectsize = math.ceil(ntasks / min(collectors, ntasks))
    if collectsize is not None and collectsize < 1:
        raise SionUsageError(f"collectsize must be >= 1, got {collectsize}")
    return collectsize


# ---------------------------------------------------------------------------
# Shared metadata writers: one build path for every creating entry point
# (reading goes through :mod:`repro.sion.loader`).


def build_file_metadata(
    tmap: TaskMapping,
    filenum: int,
    chunksizes: Sequence[int],
    globalranks: Sequence[int],
    fsblksize: int,
    flags: int,
) -> tuple[Metablock1, ChunkLayout]:
    """Metablock 1 + layout of one physical file about to be created.

    ``chunksizes``/``globalranks`` are the file's local arrays in
    local-rank order.  The custom mapping table rides on file 0 only.
    The serial creator and the parallel per-file masters both build
    their files through this one constructor, so the on-disk metadata
    of a multifile does not depend on which entry point created it.
    """
    mb1 = Metablock1(
        fsblksize=fsblksize,
        ntasks_local=len(chunksizes),
        nfiles=tmap.nfiles,
        filenum=filenum,
        ntasks_global=tmap.ntasks,
        start_of_data=0,
        metablock2_offset=0,
        globalranks=list(globalranks),
        chunksizes=list(chunksizes),
        flags=flags,
        mapping_kind=tmap.kind,
        mapping_table=(
            tmap.table_pairs()
            if filenum == 0 and tmap.kind == MAPPING_CUSTOM
            else []
        ),
    )
    layout = ChunkLayout(fsblksize, list(chunksizes), mb1.encoded_size)
    mb1.start_of_data = layout.start_of_data
    return mb1, layout


def write_metablock2(
    raw: RawFile,
    layout: ChunkLayout,
    mb1: Metablock1,
    blocksizes: list[list[int]],
) -> None:
    """Append metablock 2 after the last block and patch its offset.

    The one close-time metadata write of a physical file, shared by the
    serial creator, the parallel per-file masters and recovery: write
    metablock 2 past the chunk blocks, patch its offset into metablock 1,
    flush.
    """
    mb2 = Metablock2(blocksizes=blocksizes)
    offset = layout.end_of_blocks(mb2.maxblocks)
    raw.pwrite(offset, mb2.encode())
    mb1.patch_metablock2_offset(raw, offset)
    raw.flush()


# ---------------------------------------------------------------------------
# Replay-guarded handles: deterministic backend telemetry under bulk replay.


class ReplayGuardedFile:
    """Route every backend call of a cursor's handle through ``exec_once``.

    Cursors issue their positioned calls straight against the store.
    Under the bulk engine's memoized replay a rank body may re-execute,
    and although re-issuing an idempotent positioned write leaves the
    bytes exact, it inflates instrumented call counts
    (``CountingBackend``, SimFS accounting).  Wrapping the handle makes
    each physical call an ``exec_once`` op: it executes exactly once per
    rank and replays its logged result, so direct-mode telemetry is as
    deterministic as collective mode's.

    The guard carries exactly what the cursors call: ``scatter_write``
    from the write cursor (every write, chunk-local ones and shadow
    headers included, is one fragment list), ``gather_read`` from the
    read cursor (every read, chunk-local ones included, is one vectored
    gather), and ``close``.  Composite operations that must count as
    *one* backend call (the metablock-2 write/patch/flush sequence,
    itself wrapped in ``exec_once``) use :attr:`unguarded`:
    ``exec_once`` must not nest.
    """

    def __init__(self, raw: RawFile, comm: Any) -> None:
        """Guard ``raw`` with ``comm``'s ``exec_once`` replay log."""
        self._raw = raw
        self._once = comm.exec_once

    @property
    def unguarded(self) -> RawFile:
        """The wrapped physical handle (for composite exec_once blocks)."""
        return self._raw

    def drain(self) -> None:
        """Nothing to drain: a direct-mode sink writes straight through."""

    def close(self) -> None:
        """``close`` as a replay-guarded op (executes once per rank)."""
        return self._once(self._raw.close)

    def scatter_write(self, fragments) -> int:
        """Vectored write as a replay-guarded op (fragments materialized)."""
        # Materialize the fragment list before the guard: the caller may
        # pass a generator, which must not be consumed twice (it is not —
        # exec_once runs the closure at most once — but a logged empty
        # result from an exhausted iterator would be silent corruption).
        frags = list(fragments)
        return self._once(lambda: self._raw.scatter_write(frags))

    def gather_read(self, requests: Sequence[tuple[int, int]]) -> list[bytes]:
        """Vectored read as a replay-guarded op (requests materialized)."""
        reqs = list(requests)
        return self._once(lambda: self._raw.gather_read(reqs))


def open_guarded(
    backend: Backend, path: str, mode: str, comm: Any
) -> ReplayGuardedFile:
    """Open a physical file once per rank and wrap it in a replay guard."""
    return ReplayGuardedFile(
        comm.exec_once(lambda: backend.open(path, mode)), comm
    )


def open_mirrored(
    backend: Backend, path: str, replica_path: str | None, comm: Any
) -> ReplayGuardedFile:
    """Open a write handle, mirrored onto its buddy replica when one exists.

    The direct-mode buddy integration point: with ``replica_path`` set,
    the replay-guarded handle wraps a
    :class:`~repro.sion.buddy.MirrorRawFile`, so every chunk write and
    shadow header the cursor issues, and the metablocks the master writes
    through :attr:`ReplayGuardedFile.unguarded`, land on both copies
    through the one existing code path.  Both opens happen inside a single ``exec_once``
    op — the mirror pair must be created exactly once per rank.
    """
    return ReplayGuardedFile(
        comm.exec_once(
            lambda: backend.open(path, "r+b")
            if replica_path is None
            else MirrorRawFile(
                backend.open(path, "r+b"), backend.open(replica_path, "r+b")
            )
        ),
        comm,
    )


# ---------------------------------------------------------------------------
# Write: one plan per physical file and open wave.


@dataclass(frozen=True)
class WritePlan:
    """One physical file's open, planned once per wave by its master.

    The per-file master (rank 0 of the file's communicator) builds it
    from the ``(global rank, chunk size)`` pairs it gathers, inside
    ``exec_once``, and broadcasts it: every rank of the file holds the
    same object, and a rank's own plan is this plus its local rank (its
    rank in the file's communicator).  ``mb1`` is the one metablock 1
    the master later patches with the metablock-2 offset.

    Example::

        plan, lcom = compile_write_plan(spec, comm, backend)
        offset = plan.layout.chunk_start(lcom.rank, 0)
    """

    mapping: TaskMapping
    filenum: int
    path: str  # this physical file
    replica: str | None  # its buddy replica, or None
    layout: ChunkLayout
    mb1: Metablock1
    compress: bool
    shadow: bool
    collectsize: int | None  # resolved aggregation degree; None = direct


def compile_write_plan(spec: OpenSpec, comm: Any, backend: Backend):
    """The collective write agreement (paper Listing 1, metadata half).

    Collective over ``comm``.  A rank needs only its physical file's
    index before the split into per-file communicators (one ``exec_once``
    lookup into the task mapping; single-file sets need no split at all).
    Each per-file master gathers its tasks' ``(global rank, chunk size)``
    pairs, plans the file once (:class:`WritePlan`, built and the file —
    and its replica — created inside one ``exec_once``) and broadcasts
    the plan, which also orders the create before any rank writes.

    Returns ``(plan, lcom)``: the file's plan and communicator, whose
    rank is this task's local rank and whose rank 0 owns the metablock
    duties.
    """
    rank = comm.rank
    fsblksize = spec.fsblksize
    if fsblksize is None:
        # Rank 0 determines the alignment granularity for the whole set.
        probed = backend.stat_blocksize(spec.path) if rank == 0 else None
        fsblksize = comm.bcast(probed, root=0)
        if fsblksize < 1:
            raise SionUsageError(f"fsblksize must be positive: {fsblksize}")
    if spec.nfiles is None or spec.nfiles == 1:
        # Every rank is in file 0 and ``split(color=0, key=rank)`` would
        # reproduce ``comm`` rank for rank: reusing it skips a whole wave.
        filenum, lcom, lrank = 0, comm, rank
    else:
        filenum = comm.exec_once(partial(_file_of, spec, comm, rank))
        lcom = comm.split(color=filenum, key=rank)
        lrank = lcom.rank
    gathered = lcom.gather((rank, spec.chunksize), root=0)
    if lrank == 0:
        plan = lcom.exec_once(
            partial(_plan_file, spec, comm.size, filenum, fsblksize, gathered, backend)
        )
        return lcom.bcast(plan, root=0), lcom
    # The bcast alone orders the create: the master deposits only after
    # its exec_once above created the file.
    return lcom.bcast(None, root=0), lcom


def _file_of(spec: OpenSpec, comm: Any, rank: int) -> int:
    """The physical file ``rank`` writes (validates the mapping)."""
    return TaskMapping.create(comm.size, spec.nfiles, spec.effective_mapping).files[rank]


def _plan_file(
    spec: OpenSpec,
    ntasks: int,
    filenum: int,
    fsblksize: int,
    gathered: list[tuple[int, int]],
    backend: Backend,
) -> WritePlan:
    """A per-file master's once-per-wave work: plan the file and create it.

    The replica opens with the *same* metablock 1 bytes, so the mirrored
    chunk writes leave it byte-identical to the primary.
    """
    tmap = TaskMapping.create(ntasks, spec.effective_nfiles, spec.effective_mapping)
    flags = (
        (FLAG_COMPRESS if spec.compress else 0)
        | (FLAG_SHADOW if spec.shadow else 0)
        | (FLAG_BUDDY if spec.buddy else 0)
    )
    mb1, layout = build_file_metadata(
        tmap,
        filenum,
        [int(c) for _, c in gathered],
        [g for g, _ in gathered],
        fsblksize,
        flags,
    )
    path = physical_path(spec.path, filenum)
    replica = buddy_path(spec.path, filenum, tmap.nfiles) if spec.buddy else None
    for target in (path, replica) if replica is not None else (path,):
        raw = backend.open(target, "w+b")
        try:
            raw.pwrite(0, mb1.encode())
            raw.flush()
        finally:
            raw.close()
    return WritePlan(
        mapping=tmap,
        filenum=filenum,
        path=path,
        replica=replica,
        layout=layout,
        mb1=mb1,
        compress=spec.compress,
        shadow=spec.shadow,
        collectsize=resolve_collectsize(spec.collectsize, spec.collectors, ntasks),
    )


# ---------------------------------------------------------------------------
# Read: one plan per multifile, decoded once.


@dataclass(frozen=True)
class ReadPlan:
    """A sealed multifile's metadata, decoded once, indexed by every reader.

    The task mapping (writer global rank -> file, local rank) plus, per
    physical file, its path, chunk layout and block table (metablock 2's
    bytes per task per block).  An SPMD read builds it once per wave on
    rank 0 (:func:`compile_read_plan`), the read gateway once per
    container generation; :meth:`stream` turns any writer stream into a
    cursor with O(1) lookups — no per-stream copies.

    Example::

        load = load_set(backend, path).require_intact()
        plan = ReadPlan.from_set(load)
        data = PartitionStream([plan.stream(load.files[0].raw, 0)]).read_all()
    """

    mapping: TaskMapping
    ntasks: int  # writer task streams recorded in the multifile
    paths: tuple[str, ...]
    layouts: tuple[ChunkLayout, ...]
    blocksizes: tuple[list[list[int]], ...]
    compress: bool
    shadow: bool

    @classmethod
    def from_set(cls, load: SetLoad) -> "ReadPlan":
        """The plan of an intact set load (:meth:`SetLoad.require_intact`)."""
        flags = load.files[0].mb1.flags
        return cls(
            mapping=load.mapping,
            ntasks=load.mapping.ntasks,
            paths=tuple(f.path for f in load.files),
            layouts=tuple(f.layout for f in load.files),
            blocksizes=tuple(f.mb2.blocksizes for f in load.files),
            compress=bool(flags & FLAG_COMPRESS),
            shadow=bool(flags & FLAG_SHADOW),
        )

    def stream(self, raw: RawFile, grank: int) -> TaskStream:
        """A read cursor over writer stream ``grank``; ``raw`` serves its file."""
        f = self.mapping.files[grank]
        lrank = self.mapping.lranks[grank]
        return TaskStream(
            raw, self.layouts[f], lrank, self.blocksizes[f][lrank], self.shadow
        )


def _load_plan(backend: Backend, path: str) -> ReadPlan:
    """Rank 0's load of the whole set: each file opened once, checked, closed."""
    load = load_set(backend, path).require_intact()
    load.close()
    return ReadPlan.from_set(load)


def compile_read_plan(spec: OpenSpec, comm: Any, backend: Backend) -> ReadPlan:
    """The read-side metadata probe: one decode on rank 0, one bcast.

    Collective over ``comm``.  Rank 0 loads every physical file's
    metadata inside one ``exec_once`` (decoding a 256k-task set is worth
    not replaying) and broadcasts the :class:`ReadPlan`, so readers whose
    slices span several files need no further per-file choreography.
    Without ``partitioned`` the world must match the writer count.
    """
    if comm.rank == 0:
        plan = comm.bcast(comm.exec_once(lambda: _load_plan(backend, spec.path)))
    else:
        plan = comm.bcast(None)
    if not spec.partitioned and plan.ntasks != comm.size:
        raise SionUsageError(
            f"multifile was written by {plan.ntasks} tasks but the "
            f"communicator has {comm.size}; re-open with "
            "partitioned=True (any reader count) or use the serial API"
        )
    return plan


def open_read(spec: OpenSpec, comm: Any, backend: Backend) -> "SionReadFile":
    """Open this reader's slice: directly, or through a collector prefetch.

    The slice is reader ``comm.rank``'s ``(start, count)`` range of a
    balanced :class:`ReadPartition` (``m == n``: its own stream).  Direct
    mode opens every physical file the slice touches exactly once
    (replay-guarded); the cursor batches the streams' fragment plans, so a
    whole-slice read costs one vectored call per touched file — O(readers)
    physical data calls for the world, however many writer streams there
    are.  With ``collectsize`` a matched reader joins its writer's
    per-file collector group (the groups a collective write used) and a
    partitioned reader a world-wide group of consecutive ranks.
    """
    plan = compile_read_plan(spec, comm, backend)
    part = ReadPartition.balanced(plan.ntasks, comm.size)
    start = part.starts[comm.rank]
    writers = range(start, start + part.counts[comm.rank])
    k = spec.collectsize
    if spec.collectors is not None:
        k = resolve_collectsize(None, spec.collectors, comm.size)
    if k is None:
        files = plan.mapping.files
        raws: dict[int, RawFile] = {}
        streams = []
        for g in writers:
            raw = raws.get(files[g])
            if raw is None:
                raw = raws[files[g]] = open_guarded(
                    backend, plan.paths[files[g]], "rb", comm
                )
            streams.append(plan.stream(raw, g))
        return SionReadFile(comm, plan, writers, streams, list(raws.values()))
    if spec.partitioned:
        ccom = comm.split(color=comm.rank // k, key=comm.rank)
    else:  # color (file, group within the file), flattened to one integer
        lrank = plan.mapping.lranks[start]
        ccom = comm.split(
            color=plan.mapping.files[start] * plan.ntasks + lrank // k, key=lrank
        )
    from repro.sion.collective import prefetch_read  # it imports this module

    return prefetch_read(plan, writers, comm, ccom, backend)


# ---------------------------------------------------------------------------
# The read handle.


class SionReadFile(PartitionStream):
    """One rank's handle from ``paropen(..., "r")``, whatever the plan.

    Matched or partitioned, direct or collector-prefetched: the handle is
    the :class:`~repro.sion.readwrite.PartitionStream` cursor over this
    reader's slice of writer streams (one stream in a matched read), the
    partition introspection, and the collective :meth:`parclose`.  The
    world's readers together reproduce an ``n``-rank read byte for byte.
    """

    mode = "r"

    def __init__(
        self, comm: Any, plan: ReadPlan, writers: range,
        streams: list[TaskStream], raws: list[RawFile],
    ) -> None:
        """Bind the reader's slice ``writers`` (built by the executor)."""
        super().__init__(streams, compress=plan.compress, raws=raws)
        self.comm = comm
        self.plan = plan
        #: Writer global ranks this reader consumes, in stream order.
        self.writer_ranks = writers

    def parclose(self) -> None:
        """Close this reader's handles; every rank calls it.

        It does not synchronize: a read close writes nothing and releases
        only this rank's handles, and MPI lets a collective return before
        the other ranks reach it.  A caller whose next step needs every
        reader closed (an unlink, rename or rewrite of the set by one
        rank) adds a ``comm.barrier()`` after it.
        """
        if self.closed:
            raise SionUsageError("multifile already closed")
        self.close()

    def __exit__(self, *exc: object) -> None:
        if not self.closed:
            self.parclose()
