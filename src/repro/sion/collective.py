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

from repro.backends.base import Backend, RawFile
from repro.buffers import BufferLike, as_view
from repro.errors import SionUsageError
from repro.sion.constants import SHADOW_HEADER_SIZE
from repro.sion.openspec import (
    ReadPlan,
    SionReadFile,
    WritePlan,
    open_guarded,
    open_mirrored,
)
from repro.sion.parallel import SionParallelFile
from repro.sion.readwrite import TaskStream
from repro.simmpi.comm import Comm


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
        self, comm: Comm, lcom: Comm, plan: WritePlan, raw: RawFile | None,
        stream: TaskStream, *, ccom: Comm, recorder: FragmentRecorder,
    ) -> None:
        """Bind the sender stream and its collector group ``ccom``."""
        super().__init__(comm, lcom, plan, raw, stream)
        self.ccom = ccom
        self._recorder = recorder

    # -- introspection ------------------------------------------------------

    @property
    def collectsize(self) -> int:
        """Number of tasks per collector group."""
        return self.plan.collectsize

    @property
    def is_collector(self) -> bool:
        """True if this task performs physical I/O for its group."""
        return self.ccom.rank == 0

    @property
    def collector_lrank(self) -> int:
        """Local rank (within the physical file) of this task's collector."""
        return (self.local_rank // self.collectsize) * self.collectsize

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
    comm: Comm, lcom: Comm, plan: WritePlan, backend: Backend
) -> SionCollectiveFile:
    """Build the write-mode collective handle (metadata already agreed).

    Only the collector opens the physical file, replay-guarded on the
    collector group (every wave write and the close execute once per
    rank).  In buddy mode (``plan.replica`` set) the handle mirrors onto
    the replica, so every collection wave's ``scatter_write`` — and the
    master's metablock-2 persistence at close — lands on it too.
    """
    lrank = lcom.rank
    ccom = lcom.split(color=lrank // plan.collectsize, key=lrank)
    assert ccom is not None
    raw = (
        open_mirrored(backend, plan.path, plan.replica, ccom)
        if ccom.rank == 0
        else None
    )
    recorder = FragmentRecorder()
    stream = TaskStream(recorder, plan.layout, lrank, "w", shadow=plan.shadow)
    return SionCollectiveFile(
        comm, lcom, plan, raw, stream, ccom=ccom, recorder=recorder
    )


def prefetch_read(
    plan: ReadPlan, writers: range, comm: Comm, ccom: Comm, backend: Backend
) -> SionReadFile:
    """Open a reader's slice ``writers`` through one collector prefetch wave.

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
    files, lranks = plan.mapping.files, plan.mapping.lranks
    requests = tuple(
        (
            files[g],
            tuple(
                plan.layouts[files[g]].read_requests(
                    lranks[g], plan.blocksizes[files[g]][lranks[g]], data_offset
                )
            ),
        )
        for g in writers
    )
    gathered = ccom.gather(requests, root=0)
    raws: list[RawFile] = []
    if ccom.rank == 0:
        assert gathered is not None
        # Bucket every (sender, stream) request list by physical file,
        # preserving order, and fetch each file's bucket in one call.
        buckets: dict[int, list[tuple[int, int]]] = {}
        slices: list[list[tuple[int, int, int]]] = []
        for sender_reqs in gathered:
            sender_slices = []
            for f, reqs in sender_reqs:
                bucket = buckets.setdefault(f, [])
                sender_slices.append((f, len(bucket), len(reqs)))
                bucket.extend(reqs)
            slices.append(sender_slices)
        pieces_by_file: dict[int, list[bytes]] = {}
        for f, reqs in buckets.items():
            raw = open_guarded(backend, plan.paths[f], "rb", ccom)
            raws.append(raw)
            pieces_by_file[f] = raw.gather_read(reqs) if reqs else []
        per_sender = [
            [
                tuple(pieces_by_file[f][start : start + count])
                for f, start, count in sender_slices
            ]
            for sender_slices in slices
        ]
        mine = ccom.scatterv(per_sender, root=0)
    else:
        mine = ccom.scatterv(None, root=0)
    streams = [
        plan.stream(PreloadedFragments(list(zip([o for o, _ in reqs], pieces))), g)
        for (_, reqs), pieces, g in zip(requests, mine, writers)
    ]
    return SionReadFile(comm, plan, writers, streams, raws)
