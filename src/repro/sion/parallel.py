"""Collective (parallel) multifile access — the paper's Listings 1 and 2.

:func:`paropen` is a collective operation over a communicator: tasks agree
on the task-to-file mapping, per-file masters write/read the metablocks,
layout information is distributed, and every task receives a handle
positioned at its first chunk: a :class:`SionParallelFile` to write, a
:class:`~repro.sion.openspec.SionReadFile` to read.  In between open and
close, reads and writes are completely independent (no communication).
:meth:`SionParallelFile.parclose` is the matching collective close, where
masters collect per-task byte counts and append metablock 2.

The metadata agreement itself lives in :mod:`repro.sion.openspec`:
``paropen`` builds an :class:`~repro.sion.openspec.OpenSpec` and hands it
to :func:`open_access`, the executor that turns the spec's per-file wave
plan into a handle — the same pipeline behind the collective, hybrid and
partitioned entry points.
"""

from __future__ import annotations

from typing import Any, NoReturn

from repro.backends.base import Backend, RawFile
from repro.backends.localfs import LocalBackend
from repro.buffers import BufferLike, as_view
from repro.errors import SionUsageError
from repro.sion.compression import ZlibWriter
from repro.sion.format import Metablock1
from repro.sion.layout import ChunkLayout
from repro.sion.mapping import TaskMapping
from repro.sion.openspec import (
    OpenSpec,
    SionReadFile,
    WritePlan,
    compile_write_plan,
    open_mirrored,
    open_read,
    unwrap_raw,
    write_metablock2,
)
from repro.sion.readwrite import TaskStream, refuse_other_mode
from repro.simmpi.comm import Comm


def paropen(
    path: str,
    mode: str,
    comm: Comm,
    chunksize: int | None = None,
    *,
    fsblksize: int | None = None,
    nfiles: int = 1,
    mapping: str | list[int] = "blocked",
    backend: Backend | None = None,
    compress: bool = False,
    shadow: bool = False,
    buddy: bool = False,
    collectsize: int | None = None,
    collectors: int | None = None,
    partitioned: bool = False,
) -> "SionParallelFile | SionReadFile":
    """Collectively open a multifile for parallel access.

    Parameters mirror ``sion_paropen_mpi``:

    ``chunksize``
        Maximum bytes this task writes *in one piece* (write mode).  May
        differ per task.
    ``fsblksize``
        Alignment granularity.  Defaults to the file system's block size
        (determined via the backend's ``stat_blocksize``, the paper's
        ``fstat`` call).  Configuring a smaller value reintroduces block
        false-sharing — exactly the Table 1 experiment.
    ``nfiles`` / ``mapping``
        Number of physical files and the task distribution over them.
    ``compress``
        Transparent zlib compression of each task's stream (paper §6).
    ``shadow``
        Per-chunk recovery headers so metablock 2 can be rebuilt after a
        crash (paper §6).
    ``buddy``
        Buddy-replica checkpointing (write mode): every write is
        mirrored to a replica of this physical file hosted on the
        partner group's name stem
        (:func:`~repro.sion.buddy.buddy_path`), doubling the written
        bytes but letting :func:`~repro.sion.recovery.recover_multifile`
        rebuild a *lost or torn physical file* byte-identically.  Works
        in direct and collective mode; readers ignore replicas.
    ``collectsize`` / ``collectors``
        Collector-rank aggregation (collective mode, SIONlib's
        ``collsize``): groups of ``collectsize`` tasks funnel their chunk
        fragments through one collector rank per group, so physical data
        calls scale with the number of collectors instead of the number
        of tasks.  ``collectors=N`` is sugar for ``collectsize =
        ceil(ntasks / N)``.  Files are byte-identical to direct mode; see
        :mod:`repro.sion.collective`.
    ``partitioned``
        Read mode only: accept a reader world of **any** size over the
        multifile.  Each reader receives a contiguous slice of the
        recorded writer task streams
        (:class:`~repro.sion.mapping.ReadPartition`) and a read handle
        whose cursor concatenates them — byte-identical to a
        matched-world read.  Works with ``collectsize``/``collectors``
        (collective-prefetch partitioned read).

    Write-mode geometry options are contradictory in read mode (the
    multifile's own metadata is authoritative) and rejected with
    :class:`~repro.errors.SionUsageError` by the
    :class:`~repro.sion.openspec.OpenSpec` validator.

    Returns each task's handle.  Write mode: a :class:`SionParallelFile`
    (a :class:`~repro.sion.collective.SionCollectiveFile` in collective
    mode).  Read mode, in all four plans — matched or ``partitioned``,
    direct or collector-prefetched: a
    :class:`~repro.sion.openspec.SionReadFile`, the
    :class:`~repro.sion.readwrite.PartitionStream` read cursor over this
    task's slice of writer streams plus ``parclose``.

    Example — every rank writes one record, then reads it back::

        def program(comm):
            f = sion.paropen("/scratch/out.sion", "w", comm, chunksize=1 << 16)
            f.fwrite(payload_of(comm.rank))
            f.parclose()
            f = sion.paropen("/scratch/out.sion", "r", comm)
            assert f.read_all() == payload_of(comm.rank)
            f.parclose()

        simmpi.run_spmd(1024, program)
    """
    spec = OpenSpec.for_paropen(
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
    return open_access(spec, comm, backend)


def open_access(spec: OpenSpec, comm: Comm, backend: Backend | None = None):
    """Compile ``spec`` into this rank's plan and open its handle.

    The one pipeline behind ``paropen`` (direct, collective, partitioned)
    and ``paropen_hybrid``.  Collective over ``comm``.  Write mode opens
    this rank's stream on its file's :class:`~repro.sion.openspec.WritePlan`
    (through a collector group with ``collectsize``); read mode is
    :func:`~repro.sion.openspec.open_read`.
    """
    backend = backend if backend is not None else LocalBackend()
    if spec.mode == "r":
        return open_read(spec, comm, backend)
    plan, lcom = compile_write_plan(spec, comm, backend)
    if plan.collectsize is not None:
        from repro.sion.collective import open_collective_write  # imports us

        return open_collective_write(comm, lcom, plan, backend)
    raw = open_mirrored(backend, plan.path, plan.replica, lcom)
    stream = TaskStream(raw, plan.layout, lcom.rank, "w", shadow=plan.shadow)
    return SionParallelFile(comm, lcom, plan, raw, stream)


def persist_metablock2(
    lcom: Comm,
    raw: RawFile,
    layout: ChunkLayout,
    mb1: Metablock1,
    blocksizes: list[list[int]],
) -> None:
    """Append metablock 2 and patch its offset into metablock 1 (master).

    Shared by direct and collective parclose: :func:`write_metablock2`
    wrapped in ``exec_once``, because a bulk-engine replay of the close
    sequence must not re-write the metablock (the bytes would be
    identical, but instrumented backends would double-count the boundary
    crossing).  Callers pass the *unguarded* physical handle — the
    sequence is one composite op, and a replay-guarded handle would nest
    ``exec_once`` inside ``exec_once``.
    """
    lcom.exec_once(lambda: write_metablock2(raw, layout, mb1, blocksizes))


class SionParallelFile:
    """One task's write handle on a collectively opened multifile.

    Write mode only: ``paropen(..., "r")`` returns the read handle
    (:class:`~repro.sion.openspec.SionReadFile`), and asking this handle
    for a read call is a :class:`~repro.errors.SionUsageError`.
    """

    mode = "w"

    def __init__(
        self,
        comm: Comm,
        lcom: Comm,
        plan: WritePlan,
        raw: RawFile | None,
        stream: TaskStream,
    ) -> None:
        """Bind this task's stream on its file's plan (built by the executor)."""
        self.comm = comm
        self.lcom = lcom
        self.plan = plan
        self._raw = raw
        self._stream = stream
        self.compress = plan.compress
        self._zw: ZlibWriter | None = ZlibWriter() if plan.compress else None
        self._closed = False

    # -- introspection ------------------------------------------------------

    @property
    def layout(self) -> ChunkLayout:
        """Chunk layout of this task's physical file."""
        return self.plan.layout

    @property
    def mb1(self) -> Metablock1:
        """Metablock 1 of this task's physical file (shared by its tasks)."""
        return self.plan.mb1

    @property
    def mapping(self) -> TaskMapping:
        """The set's task-to-file mapping."""
        return self.plan.mapping

    @property
    def filenum(self) -> int:
        """Index of the physical file this task writes to."""
        return self.plan.filenum

    @property
    def local_rank(self) -> int:
        """This task's index within its physical file."""
        return self._stream.ltask

    @property
    def chunksize(self) -> int:
        """This task's usable chunk capacity in bytes."""
        return self._stream.capacity

    @property
    def fsblksize(self) -> int:
        """Alignment granularity of the multifile."""
        return self.mb1.fsblksize

    @property
    def closed(self) -> bool:
        return self._closed

    def get_current_location(self) -> tuple[int, int]:
        """``sion_get_current_location``: ``(block, pos_in_chunk)``.

        Positions refer to the raw chunk stream (compressed bytes when
        transparent compression is active).
        """
        return self._stream.cur_block, self._stream.pos

    def tell_logical(self) -> int:
        """Raw chunk-stream bytes produced so far by this task."""
        return self._stream.tell_logical()

    # -- write API (Listing 1) ------------------------------------------------

    def ensure_free_space(self, nbytes: int) -> bool:
        """Make room for an ``nbytes`` ANSI-style write; True if block grew."""
        self._check_plain("ensure_free_space")
        return self._stream.ensure_free_space(nbytes)

    def write(self, data: BufferLike) -> int:
        """ANSI-``fwrite`` equivalent: must fit in the current chunk."""
        self._check_plain("write")
        return self._stream.write(data)

    def fwrite(self, data: BufferLike) -> int:
        """SIONlib write: splits across chunks; returns *logical* bytes.

        The payload view is forwarded without intermediate copies; with
        transparent compression the deflate output is the only buffer
        materialized on the way down.
        """
        if self._closed:
            raise SionUsageError("multifile is closed")
        if self._zw is not None:
            view = as_view(data)
            self._stream.fwrite(self._zw.compress(view))
            return view.nbytes
        return self._stream.fwrite(data)

    def bytes_left_in_chunk(self) -> int:
        """Writable bytes remaining in the current chunk."""
        self._check_plain("bytes_left_in_chunk")
        return self._stream.bytes_left_in_chunk()

    def flush_shadow(self) -> None:
        """Checkpoint recovery metadata for the current block (paper §6)."""
        self._check_open()
        self._stream.flush_shadow()

    # -- collective close ------------------------------------------------------

    def parclose(self) -> None:
        """Collective close; per-file masters append metablock 2."""
        if self._closed:
            raise SionUsageError("multifile already closed")
        if self._zw is not None:
            tail = self._zw.finish()
            if tail:
                self._stream.fwrite(tail)
        blocks = self._stream.finalize()
        self._flush_data()
        gathered = self.lcom.gather(blocks, root=0)
        if self._stream.ltask == 0:  # the per-file master (lcom rank 0)
            assert gathered is not None and self._raw is not None
            persist_metablock2(
                self.lcom, unwrap_raw(self._raw), self.plan.layout, self.plan.mb1,
                gathered,
            )
        if self._raw is not None:
            self._raw.close()
        self._closed = True
        # The world barrier already makes every file's metablock 2 durable
        # before *any* rank returns: each per-file master enters it only
        # after its mb2 write above, so a separate lcom barrier per file
        # would only add a synchronization wave.
        self.comm.barrier()

    def _flush_data(self) -> None:
        """Hook: push any buffered stream data down before metablock 2.

        Direct mode writes through, so there is nothing to flush; the
        collective subclass runs its final collection wave here.
        """

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "SionParallelFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        if not self._closed:
            self.parclose()

    def __getattr__(self, name: str) -> NoReturn:
        refuse_other_mode(self, name, "w")

    # -- internals -------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SionUsageError("multifile is closed")

    def _check_plain(self, op: str) -> None:
        self._check_open()
        if self.compress:
            raise SionUsageError(
                f"{op} is unavailable with transparent compression; "
                "use fwrite, which manages chunk boundaries internally"
            )
