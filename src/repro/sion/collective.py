"""Collector-rank aggregation: decouple physical writers from task count.

The paper's multifile design removes file-count pressure, but every task
still issues its own physical I/O — at 64k+ tasks that is exactly the
small-request storm the paper warns about.  Later SIONlib releases grew a
*collective* mode where a few **collector** ranks aggregate chunk data on
behalf of their senders; this module reproduces it on top of the existing
layers:

* Each physical file's local communicator is partitioned into collector
  groups of ``collectsize`` ranks (``paropen(..., collectsize=K)``, or
  ``collectors=N`` as sugar for ``K = ceil(ntasks / N)``).  The lowest
  local rank of each group is its collector.
* **Write mode** — every task plans its chunk fragments locally with the
  ordinary :class:`~repro.sion.readwrite.TaskStream` arithmetic, but the
  stream writes into a :class:`FragmentRecorder` instead of the store.
  At each *collection wave* (:meth:`SionCollectiveFile.flush_collective`,
  and finally :meth:`~SionCollectiveFile.parclose`) the collector gathers
  its senders' ``(offset, bytes)`` fragments over the communicator
  (``gather`` of offsets + ``gatherv`` of payloads, PR 2's buffer-view
  discipline) and issues **one** ``scatter_write`` against the physical
  file.
* **Read mode** (:func:`prefetch_read`, matched and partitioned alike) —
  each task computes its complete request list locally
  (:meth:`~repro.sion.layout.ChunkLayout.read_requests`), the collector
  fetches all of its senders' data in **one** ``gather_read`` per
  physical file and ``scatterv``-distributes the pieces; every
  subsequent ``fread`` of the ordinary read handle is served from the
  prefetched :class:`PreloadedFragments` without touching the store.

Because the fragments are byte-for-byte what direct mode would have
written (same offsets, same payloads, same metablocks), the resulting
multifiles are **byte-identical** to direct-mode files — property-tested
in ``tests/sion/test_collective.py`` and gated by the ``collective``
benchmark suite, whose :class:`~repro.backends.instrument.CountingBackend`
counts prove that backend data calls scale with the number of collectors,
not the number of tasks.

A collector's physical handle is a
:class:`~repro.sion.openspec.ReplayGuardedFile` on its collector group,
like every direct-mode handle: each backend interaction (open, wave
write, prefetch read, close) is one ``Comm.exec_once`` op, so
collective-mode backend telemetry is deterministic even under the bulk
engine's memoized replay.
"""

from __future__ import annotations

import bisect
import math

from repro.backends.base import Backend, RawFile
from repro.buffers import BufferLike, as_view
from repro.errors import SionUsageError
from repro.sion.constants import SHADOW_HEADER_SIZE
from repro.sion.format import Metablock1
from repro.sion.layout import ChunkLayout
from repro.sion.mapping import TaskMapping
from repro.sion.openspec import (
    AccessPlan,
    SionReadFile,
    open_guarded,
    open_mirrored,
)
from repro.sion.parallel import SionParallelFile
from repro.sion.readwrite import TaskStream
from repro.simmpi.comm import Comm


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


class _NoDataAccess:
    """Shared guards for the two pseudo-files below."""

    def _refuse(self, op: str) -> None:
        raise SionUsageError(
            f"{op} is not available on a collective-mode task stream; "
            "data moves only in collection waves via the collector rank"
        )


class FragmentRecorder(RawFile, _NoDataAccess):
    """Write-side sink: records ``(offset, bytes)`` instead of storing.

    Stands in for the physical file underneath a sender's
    :class:`~repro.sion.readwrite.TaskStream`: all of the stream's chunk
    arithmetic, shadow headers and block accounting run unchanged, but
    the resulting fragments accumulate here until the next collection
    wave ships them to the collector.  Payloads are snapshotted at write
    time (the caller may reuse its buffer immediately, mirroring the
    communicator's payload contract).
    """

    def __init__(self) -> None:
        self._fragments: list[tuple[int, bytes]] = []
        self._closed = False

    @property
    def pending(self) -> int:
        """Fragments recorded since the last :meth:`take`."""
        return len(self._fragments)

    def take(self) -> list[tuple[int, bytes]]:
        """Drain and return the recorded fragments (wave handoff)."""
        frags, self._fragments = self._fragments, []
        return frags

    # -- RawFile write surface used by TaskStream --------------------------
    # (the base class builds pwritev/scatter_write on pwrite, so recording
    # the primitive is enough)

    def pwrite(self, offset: int, data: BufferLike) -> int:
        view = as_view(data)
        if view.nbytes:
            self._fragments.append((offset, view.tobytes()))
        return view.nbytes

    def write(self, data: BufferLike) -> int:
        self._refuse("write at the implicit file pointer")
        raise AssertionError  # pragma: no cover - _refuse always raises

    def flush(self) -> None:
        pass

    def close(self) -> None:
        self._closed = True

    # -- everything else is a usage error ----------------------------------

    def seek(self, offset: int, whence: int = 0) -> int:
        self._refuse("seek")
        raise AssertionError  # pragma: no cover

    def tell(self) -> int:
        self._refuse("tell")
        raise AssertionError  # pragma: no cover

    def read(self, n: int = -1) -> bytes:
        self._refuse("read")
        raise AssertionError  # pragma: no cover

    def write_zeros(self, n: int) -> int:
        self._refuse("write_zeros")
        raise AssertionError  # pragma: no cover

    def truncate(self, size: int) -> None:
        self._refuse("truncate")


class PreloadedFragments(RawFile, _NoDataAccess):
    """Read-side source serving positioned reads from prefetched bytes.

    Holds the ``(offset, bytes)`` fragments a collector prefetched for
    one sender (one fragment per recorded block).  The sender's
    :class:`~repro.sion.readwrite.TaskStream` issues exactly the same
    positioned requests it would against the store, and every one falls
    inside a single prefetched fragment, so the whole read API (``fread``,
    ``read``, ``seek_logical``, ``feof``) works unchanged without further
    backend calls.  A fragment the store returned short (truncated file)
    simply serves short, preserving the shortfall-vs-EOF distinction.
    """

    def __init__(self, fragments: list[tuple[int, bytes]]) -> None:
        self._frags = sorted(fragments, key=lambda f: f[0])
        self._starts = [off for off, _ in self._frags]

    # preadv/gather_read come from the RawFile base class, built on this.
    def pread(self, offset: int, n: int) -> bytes:
        i = bisect.bisect_right(self._starts, offset) - 1
        if i < 0:
            return b""
        start, data = self._frags[i]
        rel = offset - start
        if rel >= len(data):
            return b""
        return data[rel : rel + n]

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    # -- everything else is a usage error ----------------------------------

    def seek(self, offset: int, whence: int = 0) -> int:
        self._refuse("seek")
        raise AssertionError  # pragma: no cover

    def tell(self) -> int:
        self._refuse("tell")
        raise AssertionError  # pragma: no cover

    def read(self, n: int = -1) -> bytes:
        self._refuse("read")
        raise AssertionError  # pragma: no cover

    def write(self, data: BufferLike) -> int:
        self._refuse("write")
        raise AssertionError  # pragma: no cover

    def write_zeros(self, n: int) -> int:
        self._refuse("write_zeros")
        raise AssertionError  # pragma: no cover

    def truncate(self, size: int) -> None:
        self._refuse("truncate")


class SionCollectiveFile(SionParallelFile):
    """One task's handle on a multifile opened in collective mode.

    Write mode only (collective reads return the ordinary read handle,
    fed by :func:`prefetch_read`).  The write API is identical to
    :class:`SionParallelFile`; only the physical data movement differs
    (collection waves).  Additional surface: :attr:`is_collector`,
    :attr:`collectsize`, :attr:`collector_lrank` and the explicit
    :meth:`flush_collective` wave (collective over the whole world, like
    ``parclose``).
    """

    def __init__(
        self,
        *,
        ccom: Comm,
        collectsize: int,
        recorder: FragmentRecorder,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.ccom = ccom
        self._collectsize = collectsize
        self._recorder = recorder

    # -- introspection ------------------------------------------------------

    @property
    def collectsize(self) -> int:
        """Number of tasks per collector group."""
        return self._collectsize

    @property
    def is_collector(self) -> bool:
        """True if this task performs physical I/O for its group."""
        return self.ccom.rank == 0

    @property
    def collector_lrank(self) -> int:
        """Local rank (within the physical file) of this task's collector."""
        return (self.local_rank // self._collectsize) * self._collectsize

    # -- collection waves ---------------------------------------------------

    def _wave(self) -> None:
        """One collection wave: gather fragments, one ``scatter_write``.

        Collective over the collector group.  Offsets travel as an
        immutable tuple through ``gather``; payload bytes travel through
        ``gatherv``.  The collector's single backend call goes through
        its replay-guarded handle, so a bulk-engine replay never
        re-issues it.
        """
        frags = self._recorder.take()
        offsets = tuple(off for off, _ in frags)
        gathered_offsets = self.ccom.gather(offsets, root=0)
        gathered_data = self.ccom.gatherv([data for _, data in frags], root=0)
        if self.ccom.rank == 0:
            assert gathered_offsets is not None and gathered_data is not None
            wave: list[tuple[int, bytes]] = []
            for offs, pieces in zip(gathered_offsets, gathered_data):
                wave.extend(zip(offs, pieces))
            if wave:
                assert self._raw is not None
                self._raw.scatter_write(wave)

    def flush_collective(self) -> None:
        """Ship all buffered fragments to the collector now.

        Collective over the *whole* communicator (every task must call
        it, like ``parclose``): each collector group runs one wave.  Use
        it to bound sender-side buffering between waves; ``parclose``
        always runs a final wave.
        """
        self._check_open()
        self._wave()

    # -- collective close (parclose hooks) ----------------------------------

    def _flush_data(self) -> None:
        """The final collection wave, before metablock 2 is persisted."""
        self._wave()


def open_collective_write(
    comm: Comm,
    lcom: Comm,
    lrank: int,
    collectsize: int,
    backend: Backend,
    base_path: str,
    my_path: str,
    layout: ChunkLayout,
    mb1: Metablock1,
    tmap: TaskMapping,
    compress: bool,
    shadow: bool,
    replica_path: str | None = None,
) -> SionCollectiveFile:
    """Build the write-mode collective handle (metadata already agreed).

    Only the collector opens the physical file, replay-guarded on the
    collector group (every wave write and the close execute once per
    rank).  With ``replica_path`` set (buddy mode) the handle mirrors onto
    the replica, so every collection wave's ``scatter_write`` — and the
    master's metablock-2 persistence at close — lands on it too.
    """
    ccom = lcom.split(color=lrank // collectsize, key=lrank)
    assert ccom is not None
    raw = (
        open_mirrored(backend, my_path, replica_path, ccom)
        if ccom.rank == 0
        else None
    )
    recorder = FragmentRecorder()
    stream = TaskStream(recorder, layout, lrank, "w", shadow=shadow)
    return SionCollectiveFile(
        ccom=ccom,
        collectsize=collectsize,
        recorder=recorder,
        comm=comm,
        lcom=lcom,
        backend=backend,
        base_path=base_path,
        my_path=my_path,
        raw=raw,
        stream=stream,
        layout=layout,
        mb1=mb1,
        mapping=tmap,
        compress=compress,
    )


def prefetch_read(
    plan: AccessPlan, comm: Comm, ccom: Comm, backend: Backend
) -> SionReadFile:
    """Open a reader's slice through one collector prefetch wave.

    ``ccom`` is the collector group (its rank 0 is the collector).  Each
    sender plans the complete request list of every writer stream in its
    slice locally; the collector fetches all of its senders' fragments in
    **one** ``gather_read`` per touched physical file (replay-guarded,
    so counted once) and ``scatterv``s them back.  Every later read is
    served from :class:`PreloadedFragments` without touching the store —
    physical data calls scale with collectors x files, not with readers
    or writer streams.
    """
    data_offset = SHADOW_HEADER_SIZE if plan.shadow else 0
    requests = [
        (
            a.path,
            tuple(
                plan.file_layouts[a.filenum].read_requests(
                    a.lrank, a.blocksizes, data_offset
                )
            ),
        )
        for a in plan.assignments
    ]
    gathered = ccom.gather(tuple(requests), root=0)
    raws: list[RawFile] = []
    if ccom.rank == 0:
        assert gathered is not None
        # Bucket every (sender, stream) request list by physical path,
        # preserving order, and fetch each path's bucket in one call.
        buckets: dict[str, list[tuple[int, int]]] = {}
        slices: list[list[tuple[str, int, int]]] = []
        for sender_reqs in gathered:
            sender_slices = []
            for path, reqs in sender_reqs:
                bucket = buckets.setdefault(path, [])
                sender_slices.append((path, len(bucket), len(reqs)))
                bucket.extend(reqs)
            slices.append(sender_slices)
        pieces_by_path: dict[str, list[bytes]] = {}
        for path, reqs in buckets.items():
            raw = open_guarded(backend, path, "rb", ccom)
            raws.append(raw)
            pieces_by_path[path] = raw.gather_read(reqs) if reqs else []
        per_sender = [
            [
                tuple(pieces_by_path[path][start : start + count])
                for path, start, count in sender_slices
            ]
            for sender_slices in slices
        ]
        mine = ccom.scatterv(per_sender, root=0)
    else:
        mine = ccom.scatterv(None, root=0)
    streams = [
        TaskStream(
            PreloadedFragments(list(zip([off for off, _ in reqs], pieces))),
            plan.file_layouts[a.filenum],
            a.lrank,
            "r",
            blocksizes=a.blocksizes,
            shadow=plan.shadow,
        )
        for (_, reqs), pieces, a in zip(requests, mine, plan.assignments)
    ]
    return SionReadFile(comm, plan, streams, raws)
