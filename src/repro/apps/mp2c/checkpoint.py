"""Checkpoint/restart I/O for the particle mini-app (paper §5.1, Fig. 6).

Three interchangeable methods write the same 52-byte-per-particle records:

* ``"singlefile"`` — MP2C's original single-file-sequential path: gather
  at a designated writer, serialized I/O (the slow baseline of Fig. 6);
* ``"tasklocal"`` — one physical file per task (the approach whose
  creation cost Fig. 3 measures);
* ``"sion"`` — the SIONlib path: the paper reports that switching MP2C to
  it took ~50 changed lines and lifted the feasible problem size from
  ~10 M to over a billion particles.

Restart reads are symmetric, and re-decompose particles to their owning
domains afterwards, so a restart works even on a different task count for
``sion`` and ``singlefile`` (task-local files pin the task count).
"""

from __future__ import annotations

from repro.apps.mp2c.decomposition import DomainDecomposition, migrate
from repro.apps.mp2c.particles import ParticleState
from repro.backends.base import Backend
from repro.baselines.singlefile import read_single_file, write_single_file
from repro.baselines.tasklocal import read_task_local, write_task_local
from repro.errors import SionUsageError
from repro.simmpi.comm import Comm
from repro.sion import paropen, serial
from repro.sion.mapping import ReadPartition

METHODS = ("sion", "tasklocal", "singlefile")


def write_restart(
    comm: Comm,
    path: str,
    state: ParticleState,
    method: str = "sion",
    backend: Backend | None = None,
    nfiles: int = 1,
    chunksize: int | None = None,
    fsblksize: int | None = None,
) -> int:
    """Write this task's particles to a restart file set.

    ``chunksize`` defaults to this task's full record payload (MP2C knows
    its local particle count, so one chunk per task suffices — one block
    total, as in the paper's runs).  Returns bytes written by this task.
    """
    payload = state.to_records()
    if method == "sion":
        f = paropen(
            path,
            "w",
            comm,
            chunksize=chunksize if chunksize is not None else max(len(payload), 1),
            nfiles=nfiles,
            fsblksize=fsblksize,
            backend=backend,
        )
        f.fwrite(payload)
        f.parclose()
    elif method == "tasklocal":
        write_task_local(comm, path, payload, backend=backend)
    elif method == "singlefile":
        write_single_file(comm, path, payload, backend=backend)
    else:
        raise SionUsageError(f"unknown checkpoint method {method!r}; use {METHODS}")
    return len(payload)


def read_restart(
    comm: Comm,
    path: str,
    method: str = "sion",
    backend: Backend | None = None,
    decomp: DomainDecomposition | None = None,
) -> ParticleState:
    """Read this task's particles back; optionally re-migrate to owners.

    With ``decomp`` given, particles are migrated to the tasks owning
    their positions after the raw read — the restart then matches the
    decomposition even if positions moved between write and read.
    """
    if method == "sion":
        f = paropen(path, "r", comm, backend=backend)
        raw = f.read_all()
        f.parclose()
    elif method == "tasklocal":
        raw = read_task_local(comm, path, backend=backend)
    elif method == "singlefile":
        raw = read_single_file(comm, path, backend=backend)
    else:
        raise SionUsageError(f"unknown checkpoint method {method!r}; use {METHODS}")
    state = ParticleState.from_records(raw)
    if decomp is not None:
        state = migrate(comm, decomp, state)
    return state


def read_restart_any(
    comm: Comm,
    path: str,
    backend: Backend | None = None,
    decomp: DomainDecomposition | None = None,
) -> ParticleState:
    """Restart a SION checkpoint on a *different* task count.

    The paper notes the multifile "can be accessed both from a parallel
    and a serial application"; this uses the serial global view from every
    analysis task — each reads a balanced slice of the written ranks — so
    a checkpoint from N tasks restarts on any M.  With ``decomp`` given,
    particles are migrated to their owning domains afterwards (the usual
    way to rebalance after such a restart).
    """
    with serial.open(path, "r", backend=backend) as sf:
        part = ReadPartition.balanced(sf.ntasks, comm.size)
        raw = sf.slice(part.writers_of(comm.rank)).read_all()
    state = ParticleState.from_records(raw)
    if decomp is not None:
        state = migrate(comm, decomp, state)
    return state
