"""Simulated parallel file system: the paper's two costs, as plain loops.

This package provides the substrate on which the paper's scalability
experiments run.  It models the two mechanisms the paper measures:

* **metadata contention** — file creates/opens in a shared directory
  serialize on directory metadata (GPFS directory-block locking) or on a
  dedicated metadata server (Lustre MDS): :func:`fifo_finish_times` serves
  ops fed at t=0 one at a time — see :mod:`repro.fs.metadata`;
* **bandwidth sharing** — data transfers compete for client links, object
  storage targets, and the file-server backplane under max-min fairness:
  :func:`finish_times` steps a batch of flows from one completion to the
  next — see :mod:`repro.fs.flows`.

Machine profiles calibrated to the paper's two systems (Jugene/GPFS and
Jaguar/Lustre) live in :mod:`repro.fs.systems`.  :class:`repro.fs.simfs.SimFS`
is a functional in-memory file system (sparse files, directories, op
counts) that the SION layer can run on unmodified via
:class:`repro.backends.simfs_backend.SimBackend`.
"""

from repro.fs.archive import TapeLibrary, compare_archival
from repro.fs.flows import Resource, finish_times
from repro.fs.interference import bystander_latency
from repro.fs.metadata import fifo_finish_times
from repro.fs.simfs import SimFS
from repro.fs.systems import SystemProfile, jaguar, jugene

__all__ = [
    "TapeLibrary",
    "compare_archival",
    "bystander_latency",
    "Resource",
    "finish_times",
    "fifo_finish_times",
    "SimFS",
    "SystemProfile",
    "jugene",
    "jaguar",
]
