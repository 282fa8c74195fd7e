"""Collective (parallel) multifile access — the paper's Listings 1 and 2.

:func:`paropen` is a collective operation over a communicator: tasks agree
on the task-to-file mapping, per-file masters write/read the metablocks,
layout information is distributed, and every task receives a handle
positioned at its first chunk: a :class:`SionParallelFile` to write — the
:class:`~repro.sion.readwrite.WriteStream` cursor over this task's
physical file — and a :class:`~repro.sion.openspec.SionReadFile` to read.
In between open and close, reads and writes are completely independent
(no communication).  :meth:`SionParallelFile.parclose` is the matching
collective close, where masters collect per-task byte counts and append
metablock 2.

The metadata agreement itself lives in :mod:`repro.sion.openspec`:
``paropen`` builds an :class:`~repro.sion.openspec.OpenSpec` and hands it
to :func:`open_access`, the executor that turns the spec's per-file wave
plan into a handle — the same pipeline behind the collective, hybrid and
partitioned entry points.
"""

from __future__ import annotations

from array import array
from typing import Any

from repro.backends.base import Backend
from repro.backends.localfs import LocalBackend
from repro.errors import SionUsageError
from repro.sion.format import Metablock1, Metablock2
from repro.sion.layout import ChunkLayout
from repro.sion.openspec import (
    OpenSpec,
    SionReadFile,
    WritePlan,
    compile_write_plan,
    open_mirrored,
    open_read,
    write_metablock2,
)
from repro.sion.readwrite import WriteStream
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

    Returns each task's handle.  Write mode: a :class:`SionParallelFile`,
    the :class:`~repro.sion.readwrite.WriteStream` write cursor plus
    ``parclose`` (a :class:`~repro.sion.collective.SionCollectiveFile` in
    collective mode).  Read mode, in all four plans — matched or ``partitioned``,
    direct or collector-prefetched: a
    :class:`~repro.sion.openspec.SionReadFile`, the
    :class:`~repro.sion.readwrite.PartitionStream` read cursor over this
    task's slice of writer streams plus ``parclose``.  Every rank calls
    ``parclose`` in both modes.  The write ``parclose`` is not a
    barrier: world rank 0 returns from it with the whole set sealed
    (every metablock 2 written), and ``run_spmd`` returning seals it for
    everyone.  A later collective open on the same communicator is
    ordered after the seal; any other rank's non-collective step that
    needs the set sealed (``serial.open``, ``open_rank``, an unlink)
    adds a ``comm.barrier()`` first.  The read ``parclose`` does not
    synchronize either, so a caller whose next step needs every reader
    closed adds a ``comm.barrier()``.

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
    this rank's cursor on its file's :class:`~repro.sion.openspec.WritePlan`
    over the replay-guarded file (mirrored onto the buddy replica, if
    any); with ``collectsize`` the file's ranks split into collector
    groups, only each group's collector opens the file, and the cursor's
    sink is a :class:`~repro.sion.collective.FragmentRecorder`.  Read
    mode is :func:`~repro.sion.openspec.open_read`.
    """
    backend = backend if backend is not None else LocalBackend()
    if spec.mode == "r":
        return open_read(spec, comm, backend)
    plan, lcom = compile_write_plan(spec, comm, backend)
    if plan.collectsize is None:
        raw = open_mirrored(backend, plan.path, plan.replica, lcom)
        return SionParallelFile(comm, lcom, plan, raw)
    from repro.sion.collective import FragmentRecorder, SionCollectiveFile  # imports us

    lrank = lcom.rank
    ccom = lcom.split(color=lrank // plan.collectsize, key=lrank)
    raw = open_mirrored(backend, plan.path, plan.replica, ccom) if ccom.rank == 0 else None
    recorder = FragmentRecorder(ccom, raw)
    return SionCollectiveFile(comm, lcom, plan, recorder, recorder.headers)


class SionParallelFile(WriteStream):
    """One task's write handle from ``paropen(..., "w")``.

    The :class:`~repro.sion.readwrite.WriteStream` cursor over this task's
    sink, plus the plan introspection and the collective :meth:`parclose`
    (the shape of :class:`~repro.sion.openspec.SionReadFile`).  Besides
    the cursor's writes, ``parclose`` asks the sink to ``drain``, for the
    master's ``unguarded`` physical handle, and to ``close``.
    """

    mode = "w"

    def __init__(
        self, comm: Comm, lcom: Comm, plan: WritePlan, raw, headers=None
    ) -> None:
        """Bind this task's cursor on its file's plan (built by the executor)."""
        super().__init__(
            raw, plan.layout, lcom.rank, shadow=plan.shadow, compress=plan.compress,
            headers=headers,
        )
        self.comm = comm
        self.lcom = lcom
        self.plan = plan

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
    def filenum(self) -> int:
        """Index of the physical file this task writes to."""
        return self.plan.filenum

    @property
    def local_rank(self) -> int:
        """This task's index within its physical file."""
        return self.ltask

    @property
    def chunksize(self) -> int:
        """This task's usable chunk capacity in bytes."""
        return self.capacity

    @property
    def fsblksize(self) -> int:
        """Alignment granularity of the multifile."""
        return self.mb1.fsblksize

    # -- collective close ------------------------------------------------------

    def parclose(self) -> None:
        """Collective close; per-file masters append metablock 2.

        The sink drains first (a collective-mode sink's final collection
        wave), so every data byte is in the file before the master's
        gather completes and metablock 2 claims it.  It is not a world
        barrier: a task returns once its block row is handed to its
        master as a compact row
        (:meth:`~repro.sion.format.Metablock2.from_packed`): the ``int``
        size of a one-block row, else the row packed as int64 ``bytes``.  World rank 0 returns only with the whole set sealed,
        ``run_spmd`` returning seals it for every caller, and a later
        collective open on the same communicator is ordered after it.
        Any other rank whose next non-collective step needs the set
        sealed (``serial.open``, ``open_rank``, ``sionverify``, an
        unlink or a copy) adds a ``comm.barrier()`` first.
        """
        if self._closed:
            raise SionUsageError("multifile already closed")
        blocks = self.finalize()
        row = blocks[0] if len(blocks) == 1 else array("q", blocks).tobytes()
        self._raw.drain()
        gathered = self.lcom.gather(row, root=0)
        if self.ltask == 0:  # the per-file master (lcom rank 0)
            # One exec_once op, so a bulk-engine replay of the close does
            # not write the metablock again (the bytes would be identical,
            # but instrumented backends would count the calls twice).  It
            # runs on the unguarded handle: exec_once must not nest.
            raw, plan = self._raw.unguarded, self.plan
            self.lcom.exec_once(
                lambda: write_metablock2(
                    raw, plan.layout, plan.mb1, Metablock2.from_packed(gathered)
                )
            )
        self._raw.close()
        if self.lcom is not self.comm:
            # Seal token: world rank 0 returns only once every per-file
            # master has deposited, i.e. after every metablock 2 write.
            # With one file rank 0 is that master and already sealed it.
            self.comm.gather(None, root=0)

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "SionParallelFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        if not self._closed:
            self.parclose()
