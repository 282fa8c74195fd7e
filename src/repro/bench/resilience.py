"""``resilience`` suite: the cost and exactness of surviving failures.

ISSUE 9's resilience claims, measured: buddy-replica checkpointing pays
exactly one extra copy of every physical byte (overhead pinned at 2.0x —
replicas are byte-identical images of their primaries, metadata
included), and buys back *whole-file loss*: deleting one physical file
and running ``recover_multifile`` restores it byte-identically, with the
recovered logical volume pinned from first principles.  The torn-close
family drives the same recovery machinery through a crash state cut from
the call journal (:mod:`repro.backends.journal`: the recorded cycle less
every metablock-2 write and the offset patch after it) and pins that the
shadow rebuild recovers **all** logical bytes of a fully flushed
checkpoint.

* ``resilience/buddy-restore[ntasks=N]`` — an N-task bulk-engine buddy
  checkpoint over 2 physical files: replica overhead pinned at exactly
  2.0x, then physical file 1 is deleted and rebuilt from its buddy;
  recovered bytes pinned at ``(N/2) * payload`` and the restored set is
  hash-compared against the pre-loss capture.
* ``resilience/torn-close-recover[ntasks=N]`` — the recorded cycle is
  replayed onto a fresh store without its close-time writes; the shadow
  rebuild recovers ``N * payload`` logical bytes and the set verifies
  deep.

Every count above is pinned in-scenario and wall clock is reported,
never compared, so the suite has no committed baseline.  The 4k/16k
points carry the ``ci-grid`` tag and run on every push; 64k runs nightly.
"""

from __future__ import annotations

import hashlib
import time

from repro.bench.registry import scenario
from repro.bench.results import Metric, ScenarioOutput
from repro.bench.scaffold import (
    CI_GRID_COUNTS,
    PAYLOAD,
    KiB,
    check,
    grid_tags,
    host_clock,
    pin,
    sim_backend,
    write_cycle,
)

#: Task counts of the full grid; the first two form the CI grid.
RESILIENCE_TASK_COUNTS = (4096, 16384, 65536)

NFILES = 2


def _sha256(backend, path: str) -> str:
    """Streaming content hash (the files reach hundreds of MiB at 64k)."""
    h = hashlib.sha256()
    size = backend.file_size(path)
    f = backend.open(path, "rb")
    try:
        off = 0
        while off < size:
            chunk = f.pread(off, min(4 * KiB * KiB, size - off))
            h.update(chunk)
            off += len(chunk)
    finally:
        f.close()
    return h.hexdigest()


# --------------------------------------------------------------------------
# Buddy replicas: 2.0x the bytes, whole-file loss survived exactly.


def _buddy_restore(ctx) -> ScenarioOutput:
    from repro.sion import buddy_path, recover_multifile
    from repro.sion.mapping import physical_path
    from repro.utils.verify import verify_multifile

    ntasks = ctx.params["ntasks"]
    backend = sim_backend()
    path = "/resil.sion"
    write_wall, _ = write_cycle(
        backend, ntasks, "bulk", path=path, nfiles=NFILES, shadow=True, buddy=True
    )

    primary_bytes = sum(
        backend.file_size(physical_path(path, k)) for k in range(NFILES)
    )
    replica_bytes = sum(
        backend.file_size(buddy_path(path, k, NFILES)) for k in range(NFILES)
    )
    # Replicas are byte-identical images of their primaries — the
    # overhead is exactly one extra copy of every byte, metadata and all.
    pin(replica_bytes, primary_bytes, "replica byte overhead (2.0x)")

    before = {
        k: _sha256(backend, physical_path(path, k)) for k in range(NFILES)
    }
    lost = physical_path(path, 1)
    backend.unlink(lost)

    t0 = time.perf_counter()
    report = recover_multifile(path, backend=backend)
    recover_wall = time.perf_counter() - t0

    pin(report.files_rebuilt_from_buddy, 1, "files rebuilt from buddy")
    # File 1 hosts the upper half of a blocked mapping: its logical
    # volume is known from first principles.
    pin(report.bytes_recovered, (ntasks // NFILES) * PAYLOAD,
        "recovered logical bytes")
    after = {
        k: _sha256(backend, physical_path(path, k)) for k in range(NFILES)
    }
    pin(after, before, "post-recovery content hashes")
    if not verify_multifile(path, backend=backend, deep=True).ok:
        raise AssertionError("recovered set failed deep verification")

    # Rebuilding one file is a streamed copy of what its replica
    # describes; within one run it must not cost more than the
    # checkpoint that produced the data.
    check(
        recover_wall < write_wall,
        f"recovery ({recover_wall:.2f} s) cost more than the checkpoint "
        f"({write_wall:.2f} s)",
    )

    metrics = {
        "write_wall_s": host_clock(write_wall),
        "recover_wall_s": host_clock(recover_wall),
        "tasks_per_s": Metric(ntasks / write_wall, "tasks/s", "info"),
        "replica_overhead_x": Metric(
            (primary_bytes + replica_bytes) / primary_bytes, "x", "info"
        ),
        "bytes_recovered": Metric(float(report.bytes_recovered), "B", "info"),
    }
    text = (
        f"{ntasks}-task buddy checkpoint ({NFILES} files, 2.0x bytes): lost "
        f"physical file 1, rebuilt {report.bytes_recovered} logical bytes "
        f"byte-identically from its buddy in {recover_wall:.2f} s "
        f"(checkpoint took {write_wall:.2f} s)"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Torn close: the journal's rows less the close-time writes; shadows win
# metablock 2 back.


def _torn_close_recover(ctx) -> ScenarioOutput:
    from repro.backends.journal import Journal, replay, without_close_writes
    from repro.sion import recover_multifile
    from repro.utils.verify import verify_multifile

    ntasks = ctx.params["ntasks"]
    path = "/resil.sion"
    journal = Journal(sim_backend())
    write_wall, _ = write_cycle(
        journal, ntasks, "bulk", path=path, nfiles=NFILES, shadow=True
    )
    inner = sim_backend()
    replay(without_close_writes(journal.rows), inner)
    del journal
    if verify_multifile(path, backend=inner).ok:
        raise AssertionError("the cut state kept the close sequence")

    t0 = time.perf_counter()
    report = recover_multifile(path, backend=inner)
    recover_wall = time.perf_counter() - t0

    pin(report.files_recovered, NFILES, "files recovered")
    # The checkpoint was fully flushed before the close tore: the shadow
    # rebuild recovers every logical byte.
    pin(report.bytes_recovered, ntasks * PAYLOAD, "recovered logical bytes")
    if not verify_multifile(path, backend=inner, deep=True).ok:
        raise AssertionError("recovered set failed deep verification")

    metrics = {
        "write_wall_s": host_clock(write_wall),
        "recover_wall_s": host_clock(recover_wall),
        "tasks_per_s": Metric(ntasks / write_wall, "tasks/s", "info"),
        "bytes_recovered": Metric(float(report.bytes_recovered), "B", "info"),
    }
    text = (
        f"{ntasks}-task checkpoint with a torn close ({NFILES} "
        f"files, metablock 2 never persisted): shadow rebuild recovered all "
        f"{report.bytes_recovered} logical bytes in {recover_wall:.2f} s"
    )
    return ScenarioOutput(metrics=metrics, text=text)


# --------------------------------------------------------------------------
# Registration.

for _n in RESILIENCE_TASK_COUNTS:
    scenario(
        f"resilience/buddy-restore[ntasks={_n}]",
        suite="resilience",
        tags=grid_tags("resilience", "recovery", "buddy-restore", _n in CI_GRID_COUNTS),
        params={"ntasks": _n},
    )(_buddy_restore)
    scenario(
        f"resilience/torn-close-recover[ntasks={_n}]",
        suite="resilience",
        tags=grid_tags("resilience", "recovery", "torn-close", _n in CI_GRID_COUNTS),
        params={"ntasks": _n},
    )(_torn_close_recover)
