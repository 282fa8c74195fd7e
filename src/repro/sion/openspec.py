"""One open pipeline: ``OpenSpec`` -> ``AccessPlan`` -> access handles.

The paper's multifile is a *portable container*: all metadata lives in
the file, not in the job, so any consumer — parallel, serial, collective,
hybrid, or a differently sized reader world — can come back later.  This
module is the single pipeline behind every entry point:

* :class:`OpenSpec` — a validated, immutable description of *what* to
  open (path, mode, chunk geometry, mapping, aggregation, compression,
  shadow headers, partitioned-read opt-in).  It replaces the keyword
  soup that was duplicated across ``paropen``, the collective mode, the
  hybrid opener and the serial tools, and it rejects contradictory
  option combinations up front with :class:`~repro.errors.SionUsageError`
  (instead of silently ignoring half of them inside an SPMD program).
* :func:`compile_plan` — the planner.  Runs the collective metadata
  agreement (write) or the metadata probe/broadcast (read) and produces
  each rank's :class:`AccessPlan`: physical file(s), chunk layout,
  stream assignments, metablock duties, and the resolved aggregation
  degree.
* :func:`open_access` — compiles the plan and hands it to one of two
  executors: the write executor (direct or collective) or the read
  executor.  ``paropen`` (direct and collective), ``paropen_hybrid``,
  and the serial ``open``/``open_rank`` are all thin shims over this
  function or over the shared metadata helpers below.

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

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.backends.base import Backend, RawFile
from repro.backends.localfs import LocalBackend
from repro.buffers import BufferLike
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
from repro.sion.mapping import ReadPartition, TaskMapping, physical_path
from repro.sion.readwrite import PartitionStream, TaskStream


# ---------------------------------------------------------------------------
# OpenSpec: the validated, immutable description of an open request.


@dataclass(frozen=True)
class OpenSpec:
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
    file is touched.

    Example::

        spec = OpenSpec.for_paropen(path="/out.sion", mode="r",
                                    partitioned=True)
        handle = open_access(spec, comm, backend)
    """

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

    def __post_init__(self) -> None:
        if self.mode not in ("r", "w"):
            raise SionUsageError(f"mode must be 'r' or 'w', got {self.mode!r}")
        if self.collectsize is not None and self.collectors is not None:
            raise SionUsageError(
                "pass either collectsize or collectors, not both"
            )
        if self.collectsize is not None and self.collectsize < 1:
            raise SionUsageError(
                f"collectsize must be >= 1, got {self.collectsize}"
            )
        if self.collectors is not None and self.collectors < 1:
            raise SionUsageError(
                f"collectors must be >= 1, got {self.collectors}"
            )
        if self.fsblksize is not None and self.fsblksize < 1:
            raise SionUsageError(
                f"fsblksize must be positive: {self.fsblksize}"
            )
        if self.nfiles is not None and self.nfiles < 1:
            raise SionUsageError(f"nfiles must be >= 1, got {self.nfiles}")
        if self.mode == "w":
            self._validate_write()
        else:
            self._validate_read()

    def _validate_write(self) -> None:
        if self.partitioned:
            raise SionUsageError(
                "partitioned access applies to read mode only; a write "
                "world always owns one stream per task"
            )
        if self.chunksize is not None and self.chunksizes is not None:
            raise SionUsageError(
                "pass either chunksize (per-rank collective open) or "
                "chunksizes (serial creation), not both"
            )
        if self.chunksize is None and self.chunksizes is None:
            raise SionUsageError("write mode requires a non-negative chunksize")
        if self.chunksize is not None and self.chunksize < 0:
            raise SionUsageError("write mode requires a non-negative chunksize")
        if self.chunksizes is not None:
            if not self.chunksizes:
                raise SionUsageError(
                    "serial write requires the per-task chunk sizes"
                )
            if min(self.chunksizes) < 0:
                raise SionUsageError("chunk sizes must be non-negative")

    def _validate_read(self) -> None:
        geometry_opts = (
            ("chunksize", self.chunksize is not None),
            ("chunksizes", self.chunksizes is not None),
            ("fsblksize", self.fsblksize is not None),
            ("nfiles", self.nfiles is not None),
            ("mapping", self.mapping is not None),
            ("compress", self.compress),
            ("shadow", self.shadow),
            ("buddy", self.buddy),
        )
        for name, given in geometry_opts:
            if given:
                raise SionUsageError(
                    f"{name} contradicts read mode: the multifile's own "
                    "metadata is authoritative for its geometry and flags"
                )

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
        return cls(
            path=path,
            mode=mode,
            chunksize=chunksize,
            fsblksize=fsblksize,
            nfiles=nfiles,
            mapping=mapping,
            compress=compress,
            shadow=shadow,
            buddy=buddy,
            collectsize=collectsize,
            collectors=collectors,
            partitioned=partitioned,
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

    def resolved_collectsize(self, ntasks: int) -> int | None:
        """The aggregation degree, normalized (``None`` = direct mode)."""
        from repro.sion.collective import resolve_collectsize

        return resolve_collectsize(self.collectsize, self.collectors, ntasks)


# ---------------------------------------------------------------------------
# Shared metadata helpers: one decode/build path for all four entry points.


def load_set_geometry(backend: Backend, path: str) -> tuple:
    """Decode file 0's metablock 1 into the set geometry.

    Returns ``(nfiles, ntasks_global, mapping_kind, mapping_table)`` —
    everything needed to rebuild the :class:`TaskMapping` of the whole
    set.  Used by the parallel probe, the serial openers, and the tools.
    """
    raw = backend.open(path, "rb")
    try:
        mb1 = Metablock1.decode_from(raw)
    finally:
        raw.close()
    return mb1.nfiles, mb1.ntasks_global, mb1.mapping_kind, mb1.mapping_table


def load_metablocks(raw: RawFile) -> tuple[Metablock1, Metablock2, ChunkLayout]:
    """Decode both metablocks (and the layout) from an open physical file."""
    mb1 = Metablock1.decode_from(raw)
    mb2 = Metablock2.decode_from(raw, mb1.metablock2_offset)
    return mb1, mb2, ChunkLayout.from_metablock1(mb1)


def load_file_metadata(
    backend: Backend, fpath: str
) -> tuple[Metablock1, Metablock2, ChunkLayout]:
    """Open one physical file, decode its metablocks, close it."""
    raw = backend.open(fpath, "rb")
    try:
        return load_metablocks(raw)
    finally:
        raw.close()


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
    serial creator and the parallel per-file masters: seek past the
    chunk blocks, write metablock 2, patch its offset into metablock 1,
    flush.
    """
    mb2 = Metablock2(blocksizes=blocksizes)
    offset = layout.end_of_blocks(mb2.maxblocks)
    raw.seek(offset)
    raw.write(mb2.encode())
    mb1.patch_metablock2_offset(raw, offset)
    raw.flush()


# ---------------------------------------------------------------------------
# Replay-guarded handles: deterministic backend telemetry under bulk replay.


def unwrap_raw(raw: RawFile) -> RawFile:
    """The physical handle underneath a replay guard (identity otherwise)."""
    return raw.unguarded if isinstance(raw, ReplayGuardedFile) else raw


class ReplayGuardedFile(RawFile):
    """Route every backend interaction of a handle through ``exec_once``.

    Direct-mode streams issue their positioned calls straight against
    the store.  Under the bulk engine's memoized replay a rank body may
    re-execute, and although re-issuing an idempotent positioned write
    leaves the bytes exact, it inflates instrumented call counts
    (``CountingBackend``, SimFS accounting).  Wrapping the handle makes
    each physical call an ``exec_once`` op: it executes exactly once per
    rank and replays its logged result, so direct-mode telemetry is as
    deterministic as collective mode's.

    Composite operations that must count as *one* backend call (e.g.
    ``persist_metablock2``'s seek/write/patch/flush sequence, itself
    wrapped in ``exec_once``) unwrap via :func:`unwrap_raw` — nesting
    ``exec_once`` inside ``exec_once`` is an op-log violation.
    """

    def __init__(self, raw: RawFile, comm: Any) -> None:
        """Guard ``raw`` with ``comm``'s ``exec_once`` replay log."""
        self._raw = raw
        self._comm = comm

    @property
    def unguarded(self) -> RawFile:
        """The wrapped physical handle (for composite exec_once blocks)."""
        return self._raw

    def _once(self, fn: Callable[[], Any]) -> Any:
        return self._comm.exec_once(fn)

    # -- streaming surface --------------------------------------------------

    def seek(self, offset: int, whence: int = 0) -> int:
        """``seek`` as a replay-guarded op (executes once per rank)."""
        return self._once(lambda: self._raw.seek(offset, whence))

    def tell(self) -> int:
        """``tell`` as a replay-guarded op (executes once per rank)."""
        return self._once(self._raw.tell)

    def read(self, n: int = -1) -> bytes:
        """``read`` as a replay-guarded op (executes once per rank)."""
        return self._once(lambda: self._raw.read(n))

    def write(self, data: BufferLike) -> int:
        """``write`` as a replay-guarded op (executes once per rank)."""
        return self._once(lambda: self._raw.write(data))

    def write_zeros(self, n: int) -> int:
        """``write_zeros`` as a replay-guarded op (executes once per rank)."""
        return self._once(lambda: self._raw.write_zeros(n))

    def truncate(self, size: int) -> None:
        """``truncate`` as a replay-guarded op (executes once per rank)."""
        return self._once(lambda: self._raw.truncate(size))

    def flush(self) -> None:
        """``flush`` as a replay-guarded op (executes once per rank)."""
        return self._once(self._raw.flush)

    def close(self) -> None:
        """``close`` as a replay-guarded op (executes once per rank)."""
        return self._once(self._raw.close)

    # -- positioned / vectored surface --------------------------------------

    def pwrite(self, offset: int, data: BufferLike) -> int:
        """Positioned write as a replay-guarded op."""
        return self._once(lambda: self._raw.pwrite(offset, data))

    def pread(self, offset: int, n: int) -> bytes:
        """Positioned read as a replay-guarded op."""
        return self._once(lambda: self._raw.pread(offset, n))

    def pwritev(self, offset: int, views: Sequence[BufferLike]) -> int:
        """Contiguous gather-write as a replay-guarded op."""
        return self._once(lambda: self._raw.pwritev(offset, views))

    def preadv(self, offset: int, sizes: Sequence[int]) -> list[bytes]:
        """Contiguous scatter-read as a replay-guarded op."""
        return self._once(lambda: self._raw.preadv(offset, sizes))

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
    :class:`~repro.sion.buddy.MirrorRawFile`, so every chunk write,
    shadow header, and metablock the stream (or ``persist_metablock2``,
    via :func:`unwrap_raw`) issues lands on both copies through the one
    existing code path.  Both opens happen inside a single ``exec_once``
    op — the mirror pair must be created exactly once per rank.
    """
    if replica_path is None:
        return open_guarded(backend, path, "r+b", comm)
    return ReplayGuardedFile(
        comm.exec_once(
            lambda: MirrorRawFile(
                backend.open(path, "r+b"), backend.open(replica_path, "r+b")
            )
        ),
        comm,
    )


# ---------------------------------------------------------------------------
# AccessPlan: what one rank physically does.


@dataclass(frozen=True)
class StreamAssignment:
    """One writer task stream a reader consumes (partitioned read)."""

    grank: int  # writer global rank
    filenum: int
    lrank: int  # writer's local rank within its physical file
    path: str
    blocksizes: tuple[int, ...]


@dataclass
class AccessPlan:
    """Per-rank physical access plan compiled from an :class:`OpenSpec`.

    Write mode: the single-stream fields (``filenum``, ``lrank``,
    ``my_path``, ``layout``, ``mb1``, ``lcom``) describe this rank's chunk
    schedule and its metablock duties (the per-file master —
    ``lcom.rank == 0`` — writes metablock 1 and later metablock 2).  Read
    mode: ``partition`` plus one :class:`StreamAssignment` per writer
    stream in this reader's slice (exactly one in a matched read), with
    the per-file layouts in ``file_layouts``.

    Produced by :func:`compile_plan` (collectively — read mode decodes
    the metablocks on one rank and broadcasts them); consumed by the
    executor, which turns the plan into an open handle.

    Example::

        plan = compile_plan(spec, comm, backend)
        assert plan.layout is not None or plan.partition is not None
    """

    spec: OpenSpec
    ntasks: int
    mapping: TaskMapping
    collectsize: int | None
    compress: bool = False
    shadow: bool = False
    # -- write ---------------------------------------------------------------
    filenum: int | None = None
    lrank: int | None = None
    my_path: str | None = None
    #: Buddy mode (write): where this rank's file is replicated, or None.
    replica_path: str | None = None
    layout: ChunkLayout | None = None
    mb1: Metablock1 | None = None
    lcom: Any = None
    # -- read ----------------------------------------------------------------
    partition: ReadPartition | None = None
    assignments: tuple[StreamAssignment, ...] = ()
    file_layouts: dict[int, ChunkLayout] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The pipeline.


def open_access(spec: OpenSpec, comm: Any, backend: Backend | None = None):
    """Compile ``spec`` into this rank's plan and open the access handle.

    The one pipeline behind ``paropen`` (direct, collective, partitioned)
    and ``paropen_hybrid``.  Collective over ``comm``.
    """
    backend = backend if backend is not None else LocalBackend()
    if spec.mode == "w":
        plan = compile_write_plan(spec, comm, backend)
        return _execute_write(plan, comm, backend)
    plan = compile_read_plan(spec, comm, backend)
    return _execute_read(plan, comm, backend)


def compile_plan(spec: OpenSpec, comm: Any, backend: Backend) -> AccessPlan:
    """Compile an :class:`AccessPlan` without opening data handles."""
    if spec.mode == "w":
        return compile_write_plan(spec, comm, backend)
    return compile_read_plan(spec, comm, backend)


def compile_write_plan(spec: OpenSpec, comm: Any, backend: Backend) -> AccessPlan:
    """The collective write agreement (paper Listing 1, metadata half).

    Tasks agree on the task-to-file mapping and alignment granularity,
    per-file masters persist metablock 1, and every rank leaves with the
    shared layout of its physical file.
    """
    chunksize = spec.chunksize
    if chunksize is None or chunksize < 0:
        raise SionUsageError("write mode requires a non-negative chunksize")
    ntasks = comm.size
    collectsize = spec.resolved_collectsize(ntasks)
    tmap = TaskMapping.create(ntasks, spec.effective_nfiles, spec.effective_mapping)
    myfile = tmap.file_of(comm.rank)
    lrank = tmap.local_rank(comm.rank)
    mypath = physical_path(spec.path, myfile)

    # Rank 0 determines the alignment granularity for the whole set.
    fsblksize = spec.fsblksize
    if fsblksize is None:
        probed = backend.stat_blocksize(spec.path) if comm.rank == 0 else None
        fsblksize = comm.bcast(probed, root=0)
    assert fsblksize is not None
    if fsblksize < 1:
        raise SionUsageError(f"fsblksize must be positive: {fsblksize}")

    # Single-file containers need no sub-communicator: every rank is in
    # file 0 and ``split(color=0, key=rank)`` would reproduce ``comm``
    # rank for rank.  Reusing ``comm`` skips a whole collective wave —
    # at bulk-engine scale, one fewer park-and-replay cycle per rank.
    if tmap.nfiles == 1:
        lcom = comm
    else:
        lcom = comm.split(color=myfile, key=comm.rank)
    assert lcom is not None

    flags = (
        (FLAG_COMPRESS if spec.compress else 0)
        | (FLAG_SHADOW if spec.shadow else 0)
        | (FLAG_BUDDY if spec.buddy else 0)
    )
    replica = buddy_path(spec.path, myfile, tmap.nfiles) if spec.buddy else None
    # Per-file master gathers (global rank, chunksize) and writes metablock 1.
    gathered = lcom.gather((comm.rank, int(chunksize)), root=0)
    layout: ChunkLayout
    if lcom.rank == 0:
        assert gathered is not None
        granks = [g for g, _ in gathered]
        chunks = [c for _, c in gathered]
        mb1, layout = build_file_metadata(
            tmap, myfile, chunks, granks, fsblksize, flags
        )
        # exec_once: the truncating create must not repeat if the bulk
        # engine replays this rank body (thread engine: plain call).
        lcom.exec_once(lambda: _create_with_metablock1(backend, mypath, mb1))
        if replica is not None:
            # The replica opens with the *same* metablock 1 bytes, so the
            # mirrored chunk writes leave it byte-identical to the primary.
            lcom.exec_once(
                lambda: _create_with_metablock1(backend, replica, mb1)
            )
        # The root adopts the *broadcast* objects too: under bulk-engine
        # replay the locally rebuilt layout/mb1 would be fresh instances,
        # and parclose's metablock2_offset patch must land on the single
        # mb1 every rank of this file shares.
        layout, mb1 = lcom.bcast((layout, mb1), root=0)
    else:
        # bcast alone orders the create: a non-root rank cannot return
        # before the root deposited, and the root deposits only after the
        # exec_once above persisted metablock 1 — so the file exists for
        # everyone here without an extra barrier wave.
        layout, mb1 = lcom.bcast(None, root=0)
    return AccessPlan(
        spec=spec,
        ntasks=ntasks,
        mapping=tmap,
        collectsize=collectsize,
        compress=spec.compress,
        shadow=spec.shadow,
        filenum=myfile,
        lrank=lrank,
        my_path=mypath,
        replica_path=replica,
        layout=layout,
        mb1=mb1,
        lcom=lcom,
    )


def _create_with_metablock1(backend: Backend, path: str, mb1: Metablock1) -> None:
    """Create/truncate one physical file and persist its metablock 1."""
    raw = backend.open(path, "w+b")
    try:
        raw.write(mb1.encode())
        raw.flush()
    finally:
        raw.close()


def compile_read_plan(spec: OpenSpec, comm: Any, backend: Backend) -> AccessPlan:
    """The read-side metadata probe: set geometry, then this reader's slice.

    Rank 0 loads every physical file's metadata once and broadcasts it,
    so readers whose slices span several files need no further per-file
    choreography.  A reader world of any size gets a
    :class:`ReadPartition` over the writer task streams and one
    :class:`StreamAssignment` per stream of its contiguous slice; without
    ``partitioned`` the world must match the writer count, and the plan
    is that partition with ``m == n`` (reader ``r`` reads writer ``r``).
    """
    # Rank 0 reads file 0's metablock 1 to learn the set geometry
    # (exec_once: decoding a 256k-task metablock is worth not replaying).
    info = (
        comm.exec_once(lambda: load_set_geometry(backend, spec.path))
        if comm.rank == 0
        else None
    )
    nfiles, ntasks_global, kind, table = comm.bcast(info, root=0)
    if not spec.partitioned and ntasks_global != comm.size:
        raise SionUsageError(
            f"multifile was written by {ntasks_global} tasks but the "
            f"communicator has {comm.size}; re-open with "
            "partitioned=True (any reader count) or use the serial API"
        )
    collectsize = spec.resolved_collectsize(comm.size)
    tmap = TaskMapping.from_kind_code(ntasks_global, nfiles, kind, table)
    partition = ReadPartition.balanced(ntasks_global, comm.size)
    if comm.rank == 0:
        metadata = comm.exec_once(
            lambda: [
                load_file_metadata(backend, physical_path(spec.path, f))
                for f in range(nfiles)
            ]
        )
        metadata = comm.bcast(metadata, root=0)
    else:
        metadata = comm.bcast(None, root=0)
    flags = metadata[0][0].flags
    assignments = []
    for grank in partition.writers_of(comm.rank):
        f = tmap.file_of(grank)
        lrank = tmap.local_rank(grank)
        assignments.append(
            StreamAssignment(
                grank=grank,
                filenum=f,
                lrank=lrank,
                path=physical_path(spec.path, f),
                blocksizes=tuple(metadata[f][1].blocksizes[lrank]),
            )
        )
    return AccessPlan(
        spec=spec,
        ntasks=ntasks_global,
        mapping=tmap,
        collectsize=collectsize,
        compress=bool(flags & FLAG_COMPRESS),
        shadow=bool(flags & FLAG_SHADOW),
        partition=partition,
        assignments=tuple(assignments),
        file_layouts={f: metadata[f][2] for f in range(nfiles)},
    )


# ---------------------------------------------------------------------------
# Executors.


def _execute_write(plan: AccessPlan, comm: Any, backend: Backend):
    from repro.sion.parallel import SionParallelFile

    assert plan.layout is not None and plan.mb1 is not None
    assert plan.my_path is not None and plan.lrank is not None
    if plan.collectsize is not None:
        from repro.sion.collective import open_collective_write

        return open_collective_write(
            comm, plan.lcom, plan.lrank, plan.collectsize, backend,
            plan.spec.path, plan.my_path, plan.layout, plan.mb1,
            plan.mapping, plan.compress, plan.shadow,
            replica_path=plan.replica_path,
        )
    raw = open_mirrored(backend, plan.my_path, plan.replica_path, plan.lcom)
    stream = TaskStream(raw, plan.layout, plan.lrank, "w", shadow=plan.shadow)
    return SionParallelFile(
        comm=comm,
        lcom=plan.lcom,
        backend=backend,
        base_path=plan.spec.path,
        my_path=plan.my_path,
        raw=raw,
        stream=stream,
        layout=plan.layout,
        mb1=plan.mb1,
        mapping=plan.mapping,
        compress=plan.compress,
    )


def _execute_read(plan: AccessPlan, comm: Any, backend: Backend) -> "SionReadFile":
    """Open this reader's slice: directly, or through a collector prefetch.

    Direct mode opens every physical file the slice touches exactly once
    (replay-guarded); the cursor batches the streams' fragment plans, so a
    whole-slice read costs one vectored call per touched file — O(readers)
    physical data calls for the world, however many writer streams there
    are.  With ``collectsize`` a matched reader joins its writer's
    per-file collector group (the groups a collective write used) and a
    partitioned reader a world-wide group of consecutive ranks.
    """
    k = plan.collectsize
    if k is None:
        raws: dict[int, RawFile] = {}
        streams = []
        for a in plan.assignments:
            raw = raws.get(a.filenum)
            if raw is None:
                raw = raws[a.filenum] = open_guarded(backend, a.path, "rb", comm)
            streams.append(
                TaskStream(
                    raw, plan.file_layouts[a.filenum], a.lrank, "r",
                    blocksizes=a.blocksizes, shadow=plan.shadow,
                )
            )
        return SionReadFile(comm, plan, streams, list(raws.values()))
    from repro.sion.collective import prefetch_read

    if plan.spec.partitioned:
        ccom = comm.split(color=comm.rank // k, key=comm.rank)
    else:  # color (file, group within the file), flattened to one integer
        (a,) = plan.assignments
        ccom = comm.split(color=a.filenum * plan.ntasks + a.lrank // k, key=a.lrank)
    assert ccom is not None
    return prefetch_read(plan, comm, ccom, backend)


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
        self, comm: Any, plan: AccessPlan, streams: list[TaskStream],
        raws: list[RawFile],
    ) -> None:
        """Bind the reader's compiled slice (built by the executor)."""
        super().__init__(streams, compress=plan.compress, raws=raws)
        self.comm = comm
        self.plan = plan

    @property
    def partition(self) -> ReadPartition:
        """The world's reader -> writer-slice assignment."""
        assert self.plan.partition is not None
        return self.plan.partition

    @property
    def writer_ranks(self) -> range:
        """Writer global ranks this reader consumes, in stream order."""
        return self.partition.writers_of(self.comm.rank)

    @property
    def nwriters(self) -> int:
        """Number of logical task streams recorded in the multifile."""
        return self.plan.ntasks

    def parclose(self) -> None:
        """Collective close of the reader world."""
        if self.closed:
            raise SionUsageError("multifile already closed")
        self.close()
        self.comm.barrier()

    def __exit__(self, *exc: object) -> None:
        if not self.closed:
            self.parclose()
