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
* **Write mode** — every task's handle is the ordinary write cursor
  (:class:`~repro.sion.readwrite.WriteStream`), but its sink is a
  :class:`FragmentRecorder` instead of the store.  At each *collection
  wave* (:meth:`SionCollectiveFile.flush_collective`, and finally the
  sink's drain in ``parclose``) the collector gathers its senders'
  ``(offset, bytes)`` fragments over the communicator (``gather`` of
  offsets + ``gatherv`` of payloads) and issues **one** ``scatter_write``
  of chunk data against the physical file, then one more of the senders'
  shadow headers, so no header reaches the store with the data it counts.
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
from operator import itemgetter

from repro.backends.base import Backend, RawFile
from repro.buffers import as_view, keep
from repro.errors import SionUsageError
from repro.sion.constants import SHADOW_HEADER_SIZE
from repro.sion.openspec import ReadPlan, ReplayGuardedFile, SionReadFile, open_guarded
from repro.sion.parallel import SionParallelFile
from repro.simmpi.comm import Comm


class _Tape:
    """Records fragment lists as ``(offset, payload)`` pairs, each
    payload kept by :func:`~repro.buffers.keep`."""

    def __init__(self) -> None:
        self._fragments: list[tuple[int, bytes | memoryview]] = []

    def scatter_write(self, fragments) -> int:
        """Record a fragment list as the store receives it: non-empty, by offset."""
        views = sorted(((off, as_view(d)) for off, d in fragments), key=itemgetter(0))
        self._fragments.extend((off, keep(v)) for off, v in views if v.nbytes)
        return sum(v.nbytes for _, v in views)


class FragmentRecorder(_Tape):
    """Collective-mode write sink: records fragments, ships them in waves.

    Stands in for the physical file underneath a task's write cursor: the
    ``(offset, bytes)`` fragments accumulate here, and the cursor's shadow
    headers in :attr:`headers`, until the next collection wave
    (:meth:`drain`) ships both to the collector — the group's rank 0,
    which alone holds ``raw``, the replay-guarded physical file (mirrored
    onto the buddy replica, if any).  Payloads are kept by
    :func:`~repro.buffers.keep`: a view of an immutable ``bytes`` travels
    to the store as that view, anything else is copied once at write
    time, so the caller may reuse its buffer.
    """

    def __init__(self, ccom: Comm, raw: ReplayGuardedFile | None) -> None:
        """Record for collector group ``ccom``; ``raw`` only on its collector."""
        super().__init__()
        self.ccom = ccom
        self.raw = raw
        self.headers = _Tape()

    # -- what parclose asks of a sink ------------------------------------------

    def drain(self) -> None:
        """One collection wave: gather fragments, one ``scatter_write`` of
        data, then one of shadow headers.

        Collective over the collector group.  Offsets travel as immutable
        tuples through ``gather`` (data, then headers); the kept payloads
        travel through ``gatherv``, which keeps them by the same rule.
        The collector's backend calls go through its replay-guarded
        handle, so a bulk-engine replay never repeats them.
        """
        frags, self._fragments = self._fragments, []
        headers, self.headers._fragments = self.headers._fragments, []
        gathered_offsets = self.ccom.gather(
            (tuple(off for off, _ in frags), tuple(off for off, _ in headers)), root=0
        )
        gathered_data = self.ccom.gatherv(
            [data for _, data in frags] + [data for _, data in headers], root=0
        )
        if self.raw is not None:
            assert gathered_offsets is not None and gathered_data is not None
            wave: list[tuple[int, bytes | memoryview]] = []
            shadows: list[tuple[int, bytes | memoryview]] = []
            for (offs, hoffs), pieces in zip(gathered_offsets, gathered_data):
                wave.extend(zip(offs, pieces))
                shadows.extend(zip(hoffs, pieces[len(offs):]))
            if wave:
                self.raw.scatter_write(wave)
            if shadows:
                self.raw.scatter_write(shadows)

    @property
    def unguarded(self) -> RawFile:
        """The collector's physical handle (the per-file master is one)."""
        assert self.raw is not None
        return self.raw.unguarded

    def close(self) -> None:
        """Close the collector's physical handle; senders hold none."""
        if self.raw is not None:
            self.raw.close()


class PreloadedFragments:
    """Read-side source serving positioned reads from prefetched bytes.

    Holds the ``(offset, bytes)`` fragments a collector prefetched for
    one sender (one fragment per recorded block).  The sender's read
    cursor (:class:`~repro.sion.readwrite.PartitionStream`) plans exactly
    the requests it would against the store and fetches them with its
    one ``gather_read``; every request falls inside a single prefetched
    fragment, so the read API works without further backend calls.  A
    fragment the store returned short (truncated file) simply serves
    short, preserving the shortfall-vs-EOF distinction.
    """

    def __init__(self, fragments: "list[tuple[int, bytes | memoryview]]") -> None:
        self._frags = sorted(fragments, key=itemgetter(0))
        self._starts = [off for off, _ in self._frags]

    def gather_read(self, requests) -> "list[bytes | memoryview]":
        """The prefetched bytes of each ``(offset, size)`` request, in order
        (slices of the fetched pieces, which may be read-only views)."""
        out = []
        for offset, n in requests:
            i = bisect.bisect_right(self._starts, offset) - 1
            if i < 0:
                out.append(b"")
                continue
            start, data = self._frags[i]
            out.append(data[offset - start : offset - start + n])
        return out


class SionCollectiveFile(SionParallelFile):
    """The write handle with a :class:`FragmentRecorder` as its sink.

    The write API and ``parclose`` are :class:`SionParallelFile`'s; this
    adds the collector-group introspection and the explicit
    :meth:`flush_collective` wave.
    """

    @property
    def ccom(self) -> Comm:
        """This task's collector group (its rank 0 is the collector)."""
        return self._raw.ccom

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

    def flush_collective(self) -> None:
        """Ship all buffered fragments to the collector now.

        Collective over the *whole* communicator (every task must call
        it, like ``parclose``): each collector group runs one wave.  Use
        it to bound sender-side buffering between waves; ``parclose``
        always runs a final wave.
        """
        if self._closed:
            raise SionUsageError("multifile is closed")
        self._raw.drain()


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
    plans = []
    for g in writers:
        f, lrank = files[g], lranks[g]
        table = plan.tables[f]  # the stream's row, as Metablock2.row slices it
        row = table.sizes[table.bounds[lrank] : table.bounds[lrank + 1]]
        plans.append((f, tuple(plan.layouts[f].read_requests(lrank, row, data_offset))))
    requests = tuple(plans)
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
        pieces_by_file: "dict[int, list[bytes | memoryview]]" = {}
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
