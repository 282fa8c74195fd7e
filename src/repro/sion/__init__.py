"""SION multifile library — the paper's primary contribution.

Maps many logical task-local files onto one (or a few) physical *multifiles*
with internal metadata handling and file-system-block alignment.  The API
mirrors the paper's (Listings 1-5):

Parallel write (collective open/close, independent writes)::

    from repro import simmpi, sion

    def program(comm):
        f = sion.paropen("/data/out.sion", "w", comm, chunksize=1 << 16)
        f.ensure_free_space(len(payload))
        f.write(payload)            # ANSI-style write within the chunk
        f.fwrite(big_payload)       # or: chunk-spanning write
        f.parclose()

    simmpi.run_spmd(8, program)

Parallel read mirrors write (``sion.paropen(..., "r")``, ``fread``,
``feof``, ``bytes_avail_in_chunk``).  Serial tools use :func:`sion.open`
(global view, with ``get_locations`` and ``seek``) or
:func:`sion.open_rank` (task-local view).  Every write handle — parallel,
collective, hybrid or serial — is the one write cursor,
:class:`WriteStream`, over a different sink; every read surface is the
one read cursor, :class:`PartitionStream`, over a slice of task streams.
"""

from repro.sion.constants import (
    BUDDY_SUFFIX,
    DEFAULT_FSBLKSIZE,
    FLAG_BUDDY,
    FLAG_COMPRESS,
    FLAG_SHADOW,
    MAGIC_MB1,
    MAGIC_MB2,
)
from repro.sion.buddy import MirrorRawFile, buddy_path
from repro.sion.format import Metablock1, Metablock2
from repro.sion.layout import ChunkLayout, align_up
from repro.sion.mapping import ReadPartition, TaskMapping
from repro.sion.buffering import CoalescingWriter
from repro.sion.collective import SionCollectiveFile
from repro.sion.hybrid import HybridParallelFile, open_rank_thread, paropen_hybrid
from repro.sion.openspec import (
    OpenSpec,
    ReadPlan,
    SionReadFile,
    WritePlan,
    resolve_collectsize,
)
from repro.sion.parallel import SionParallelFile, open_access, paropen
from repro.sion.readwrite import PartitionStream, TaskStream, WriteStream
from repro.sion.serial import SionSerialFile, SionSerialWriter, open, open_rank  # noqa: A004
from repro.sion.recovery import RecoveryReport, recover_multifile
from repro.sion.text import TextReader, TextWriter

__all__ = [
    "BUDDY_SUFFIX",
    "DEFAULT_FSBLKSIZE",
    "FLAG_BUDDY",
    "FLAG_COMPRESS",
    "FLAG_SHADOW",
    "MAGIC_MB1",
    "MAGIC_MB2",
    "MirrorRawFile",
    "buddy_path",
    "Metablock1",
    "Metablock2",
    "ChunkLayout",
    "align_up",
    "TaskMapping",
    "ReadPartition",
    "OpenSpec",
    "WritePlan",
    "ReadPlan",
    "open_access",
    "SionParallelFile",
    "SionCollectiveFile",
    "SionReadFile",
    "WriteStream",
    "PartitionStream",
    "TaskStream",
    "resolve_collectsize",
    "paropen",
    "HybridParallelFile",
    "paropen_hybrid",
    "open_rank_thread",
    "CoalescingWriter",
    "TextReader",
    "TextWriter",
    "SionSerialFile",
    "SionSerialWriter",
    "open",
    "open_rank",
    "RecoveryReport",
    "recover_multifile",
]
