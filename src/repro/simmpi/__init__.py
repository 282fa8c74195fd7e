"""SPMD substrate with MPI-like communicators.

The SION layer (like the original SIONlib) needs MPI only for metadata
exchange around collective open/close.  This package provides those
semantics — communicators and the standard collectives, through which
every exchange goes — defined once in :class:`Comm` and carried by three
transports: one thread per rank (the default), the cooperative bulk
engine for up to a million simulated ranks, and one process per rank.
Parallel programs can so be executed deterministically on one machine:

>>> from repro.simmpi import run_spmd
>>> def program(comm):
...     return comm.allreduce(comm.rank)
>>> run_spmd(4, program)
[6, 6, 6, 6]
"""

from repro.simmpi.bulk import BulkComm, run_spmd_bulk
from repro.simmpi.comm import COMM_NULL, Comm, ThreadComm
from repro.simmpi.proc import ProcComm, run_spmd_proc
from repro.simmpi.runner import (
    ENGINES,
    normalize_engine,
    run_spmd,
    spmd_context,
)

__all__ = [
    "COMM_NULL",
    "BulkComm",
    "Comm",
    "ENGINES",
    "ProcComm",
    "ThreadComm",
    "normalize_engine",
    "run_spmd",
    "run_spmd_bulk",
    "run_spmd_proc",
    "spmd_context",
]
