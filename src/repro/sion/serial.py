"""Serial multifile access — the paper's Listings 3-5.

Three entry points:

* :func:`open` with mode ``"r"`` — *global view*: all metadata of all
  physical files is loaded (``get_locations``), and ``seek(rank, block,
  pos)`` positions anywhere in any task's data (Listing 5).
* :func:`open` with mode ``"w"`` — serial creation of a multifile for an
  arbitrary number of tasks, the prerequisite for post-processing tools
  like defragmentation (Listing 3).
* :func:`open_rank` — *task-local view*: read a single task's logical file
  with the same streaming API the parallel reader offers (Listing 4).

The global view is the one open-set object, :class:`SealedSet` (a
``ReadPlan`` plus one read handle per physical file; the read gateway's
container is one too), with a cursor under its ``seek`` position.  Every
read is the one read cursor, :class:`~repro.sion.readwrite.PartitionStream`:
``open_rank`` returns one over its task, :meth:`SealedSet.slice` one over
any run of writer streams.  The write view, :class:`SionSerialWriter`, is
the one write cursor, :class:`~repro.sion.readwrite.WriteStream`, once
per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NoReturn, Sequence

import numpy as np

from repro.backends.base import Backend, RawFile
from repro.backends.localfs import LocalBackend
from repro.buffers import BufferLike
from repro.errors import SionUsageError
from repro.sion.columns import ndarray_of
from repro.sion.constants import FLAG_COMPRESS, FLAG_SHADOW
from repro.sion.format import Metablock1, Metablock2
from repro.sion.layout import ChunkLayout
from repro.sion.loader import load_set
from repro.sion.mapping import TaskMapping, physical_path
from repro.sion.openspec import OpenSpec, ReadPlan, build_file_metadata, write_metablock2
from repro.sion.readwrite import (
    PartitionStream,
    TaskStream,
    WriteStream,
    refuse_other_mode,
)


@dataclass
class Locations:
    """Everything ``sion_get_locations`` reveals about a multifile."""

    ntasks: int
    nfiles: int
    fsblksize: int
    chunksizes: list[int]  # requested chunk size per global rank
    nblocks: list[int]  # blocks recorded per global rank
    blocksizes: list[list[int]]  # bytes written per rank per block
    file_of_task: list[int]
    compressed: bool

    def total_bytes(self, rank: int | None = None) -> int:
        """Logical bytes of one rank (or of the whole multifile)."""
        if rank is None:
            return sum(sum(b) for b in self.blocksizes)
        if not 0 <= rank < self.ntasks:
            raise SionUsageError(f"rank {rank} out of range ({self.ntasks})")
        return sum(self.blocksizes[rank])


class _PhysFile:
    """One physical file of a multifile being created."""

    def __init__(self, raw: RawFile, mb1: Metablock1, layout: ChunkLayout) -> None:
        self.raw = raw
        self.mb1 = mb1
        self.layout = layout


def open(  # noqa: A001 - mirrors the paper's sion_open
    path: str,
    mode: str = "r",
    *,
    chunksizes: list[int] | None = None,
    fsblksize: int | None = None,
    nfiles: int = 1,
    mapping: str | list[int] = "blocked",
    backend: Backend | None = None,
) -> "SionSerialFile | SionSerialWriter":
    """Open a multifile from a serial program (global view).

    Mode ``"r"`` returns the read view, mode ``"w"`` the write view
    (:class:`SionSerialWriter`).  A thin shim over the shared pipeline:
    the options are validated as an :class:`~repro.sion.openspec.OpenSpec`
    (so contradictory combinations fail identically across every entry
    point) before the serial executor runs.
    """
    backend = backend if backend is not None else LocalBackend()
    spec = OpenSpec.for_serial(
        path,
        mode,
        chunksizes=chunksizes,
        fsblksize=fsblksize,
        nfiles=nfiles,
        mapping=mapping,
    )
    if spec.mode == "r":
        return SionSerialFile._open_read(path, backend)
    return SionSerialWriter._create(spec, backend)


def open_rank(
    path: str, rank: int, backend: Backend | None = None
) -> PartitionStream:
    """Open the task-local view of a single rank (read-only, Listing 4).

    Shares the pipeline's validated spec and the set loader with every
    other entry point (the task-local view is a read spec narrowed to
    one stream).  Returns the read cursor over that stream, owning the
    physical handle the loader opened (``close`` releases it).  Only
    file 0, which names the rank's file, and that file are loaded and
    checked: a damaged sibling does not matter.
    """
    backend = backend if backend is not None else LocalBackend()
    spec = OpenSpec.for_serial(path, "r")
    load = load_set(backend, spec.path, rank).require_intact()
    *others, f = load.files  # the rank's file is the last one loaded
    for other in others:
        other.close()
    lrank = load.mapping.lranks[rank]
    stream = TaskStream(
        f.raw, f.layout, lrank, f.mb2.row(lrank), bool(f.mb1.flags & FLAG_SHADOW)
    )
    return PartitionStream(
        [stream], compress=bool(f.mb1.flags & FLAG_COMPRESS), raws=[f.raw]
    )


class SealedSet:
    """A sealed multifile held open: a :class:`ReadPlan` and one read
    handle per physical file.

    The one open-set object: the serial global view and the read
    gateway's container are this plus their own state.  It holds no
    cursor; :meth:`stream` and :meth:`slice` compile fresh ones over the
    shared handles, so several threads may read one set at once.
    """

    def __init__(self, plan: ReadPlan, raws: Sequence[RawFile]) -> None:
        self.plan = plan
        self.raws = list(raws)
        self.ntasks = plan.ntasks  # writer task streams
        self.nfiles = len(plan.paths)
        self.fsblksize = plan.layouts[0].fsblksize
        self.compressed = plan.compress  # streams are zlib streams
        self._closed = False

    def stream(self, rank: int) -> TaskStream:
        """A fresh read cursor over writer stream ``rank`` (range-checked)."""
        self._check_open()
        if not 0 <= rank < self.ntasks:
            raise SionUsageError(f"writer rank {rank} out of range ({self.ntasks} streams)")
        return self.plan.stream(self.raws[self.plan.mapping.files[rank]], rank)

    def slice(self, writers: Iterable[int]) -> PartitionStream:
        """One read cursor over the streams ``writers``, in that order,
        inflating each in a compressed set; it does not own the handles."""
        return PartitionStream([self.stream(g) for g in writers], compress=self.compressed)

    def read_task(self, rank: int) -> bytes:
        """Entire logical content of writer stream ``rank``, decompressed."""
        return self.slice((rank,)).read_all()

    def close(self) -> None:
        """Release every physical file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for raw in self.raws:
            raw.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SionUsageError("multifile is closed")


class SionSerialFile(SealedSet):
    """Global-view read handle for serial programs and command-line tools:
    the open set plus the Listing 5 cursor that ``seek`` places."""

    mode = "r"

    def __init__(self, plan: ReadPlan, raws: Sequence[RawFile]) -> None:
        super().__init__(plan, raws)
        self._cursor: PartitionStream | None = None
        self.seek(0, 0, 0)

    @classmethod
    def _open_read(cls, path: str, backend: Backend) -> "SionSerialFile":
        load = load_set(backend, path).require_intact()
        return cls(ReadPlan.from_set(load), [f.raw for f in load.files])

    # -- metadata (Listing 5) ------------------------------------------------

    def get_locations(self) -> Locations:
        """Return the full multifile geometry (``sion_get_locations``).

        The files' chunk sizes, concatenated, land through one fancy-indexed
        gather (a task sits at its file's offset plus its local rank); only
        the ragged per-block lists keep a per-task loop.
        """
        self._check_open()
        plan = self.plan
        files, lranks = plan.mapping.files, plan.mapping.lranks
        blocksizes = [plan.row(g).tolist() for g in range(self.ntasks)]
        offsets = np.cumsum([0] + [lay.ntasks for lay in plan.layouts[:-1]])
        chunks = np.concatenate([ndarray_of(lay.chunksizes) for lay in plan.layouts])
        chunks = chunks[offsets[ndarray_of(files)] + ndarray_of(lranks)]
        return Locations(
            ntasks=self.ntasks,
            nfiles=self.nfiles,
            fsblksize=self.fsblksize,
            chunksizes=chunks.tolist(),
            nblocks=list(map(len, blocksizes)),
            blocksizes=blocksizes,
            file_of_task=files.tolist(),
            compressed=self.compressed,
        )

    # -- cursor ------------------------------------------------------------------

    def seek(self, rank: int, block: int = 0, pos: int = 0) -> None:
        """Position at ``pos`` within ``rank``'s chunk of ``block``.

        This is ``sion_seek`` for global-view reading (Listing 5).  A
        compressed task stream can only be entered at its start: any other
        position falls inside a deflate stream and is refused with
        :class:`~repro.errors.SionUsageError`.
        """
        stream = self.stream(rank)
        if (block, pos) != (0, 0) and self.compressed:
            raise SionUsageError(
                f"cannot seek to block {block}, pos {pos}: the multifile is "
                "compressed and a task stream can only be entered at its start"
            )
        stream.seek_logical(block, pos)
        self._cursor = PartitionStream([stream], compress=self.compressed)

    # -- reading --------------------------------------------------------------------

    def bytes_avail_in_chunk(self) -> int:
        """Unread data bytes in the chunk under the cursor."""
        return self._read_cursor().bytes_avail_in_chunk()

    def feof(self) -> bool:
        """True when the cursor's task has no data left."""
        return self._read_cursor().feof()

    def read(self, n: int) -> bytes:
        """Read within the current chunk."""
        cursor = self._read_cursor()
        self._no_compress("read")
        return cursor.read(n)

    def fread(self, n: int) -> bytes:
        """Read across chunk boundaries of the current task."""
        cursor = self._read_cursor()
        self._no_compress("fread")
        return cursor.fread(n)

    def read_task(self, rank: int) -> bytes:
        """Entire logical content of ``rank``'s task-local file.

        Transparently decompresses if the multifile was written with
        ``compress=True``; leaves the cursor at the end of the task.
        """
        self.seek(rank, 0, 0)
        return self._read_cursor().read_all()

    # -- lifecycle -------------------------------------------------------------------------

    def __enter__(self) -> "SionSerialFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __getattr__(self, name: str) -> NoReturn:
        refuse_other_mode(self, name, "r")

    # -- internals ------------------------------------------------------------------------

    def _read_cursor(self) -> PartitionStream:
        self._check_open()
        assert self._cursor is not None
        return self._cursor

    def _no_compress(self, op: str) -> None:
        if self.compressed:
            raise SionUsageError(
                f"{op} returns raw chunk bytes, which are compressed in this "
                "multifile; use read_task for transparent decompression"
            )


class SionSerialWriter:
    """Serial creation of a multifile (Listing 3): one write cursor per task.

    ``seek(rank, block, pos)`` selects ``rank``'s
    :class:`~repro.sion.readwrite.WriteStream`, created at its first
    ``seek``, and moves it forward; ``write``, ``fwrite`` and
    ``ensure_free_space`` go to the selected cursor (rank 0's until the
    first ``seek``).  ``close`` appends every file's metablock 2 from the
    cursors' block counts; a task never sought records one empty block.
    """

    mode = "w"

    def __init__(self, files: list[_PhysFile], tmap: TaskMapping) -> None:
        self._files = files
        self.mapping = tmap
        self._streams: dict[int, WriteStream] = {}
        self._cursor: WriteStream | None = None
        self._closed = False

    @classmethod
    def _create(cls, spec: OpenSpec, backend: Backend) -> "SionSerialWriter":
        assert spec.chunksizes is not None
        chunksizes = list(spec.chunksizes)
        ntasks = len(chunksizes)
        tmap = TaskMapping.create(
            ntasks, spec.effective_nfiles, spec.effective_mapping
        )
        fsblksize = spec.fsblksize
        if fsblksize is None:
            fsblksize = backend.stat_blocksize(spec.path)
        files: list[_PhysFile] = []
        for f in range(tmap.nfiles):
            mb1, layout = build_file_metadata(
                tmap, f, [chunksizes[r] for r in tmap.tasks_of_file(f)], fsblksize, 0
            )
            fpath = physical_path(spec.path, f)
            raw = backend.open(fpath, "w+b")
            raw.pwrite(0, mb1.encode())
            files.append(_PhysFile(raw, mb1, layout))
        return cls(files, tmap)

    def seek(self, rank: int, block: int = 0, pos: int = 0) -> None:
        """``sion_seek`` for serial writing: select ``rank``'s cursor, move it.

        A position before the cursor is refused with
        :class:`~repro.errors.SionUsageError`.
        """
        if self._closed:
            raise SionUsageError("multifile is closed")
        if not 0 <= rank < self.mapping.ntasks:
            raise SionUsageError(f"rank {rank} out of range ({self.mapping.ntasks})")
        stream = self._streams.get(rank)
        if stream is None:
            pf = self._files[self.mapping.file_of(rank)]
            stream = WriteStream(pf.raw, pf.layout, self.mapping.local_rank(rank))
            self._streams[rank] = stream
        stream.seek_logical(block, pos)
        self._cursor = stream

    def ensure_free_space(self, nbytes: int) -> bool:
        """Advance the cursor to a fresh chunk if ``nbytes`` don't fit."""
        return self._write_cursor().ensure_free_space(nbytes)

    def write(self, data: BufferLike) -> int:
        """Write at the cursor; must stay inside the current chunk."""
        return self._write_cursor().write(data)

    def fwrite(self, data: BufferLike) -> int:
        """Write at the cursor, spanning blocks of the current task."""
        return self._write_cursor().fwrite(data)

    def close(self) -> None:
        """Append metablock 2 to every file, then close them (idempotent)."""
        if self._closed:
            return
        streams = self._streams
        for pf in self._files:
            mb2 = Metablock2(
                streams[g].finalize() if g in streams else [0]
                for g in pf.mb1.globalranks
            )
            write_metablock2(pf.raw, pf.layout, pf.mb1, mb2)
        for pf in self._files:
            pf.raw.close()
        self._closed = True

    def __enter__(self) -> "SionSerialWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __getattr__(self, name: str) -> NoReturn:
        refuse_other_mode(self, name, "w")

    def _write_cursor(self) -> WriteStream:
        if self._cursor is None:
            self.seek(0)
        assert self._cursor is not None
        return self._cursor
