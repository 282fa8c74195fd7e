"""Discrete-event simulated parallel file system.

This package provides the substrate on which the paper's scalability
experiments run.  It models the two mechanisms the paper measures:

* **metadata contention** — file creates/opens in a shared directory
  serialize on directory metadata (GPFS directory-block locking) or on a
  dedicated metadata server (Lustre MDS) — see :mod:`repro.fs.metadata`;
* **bandwidth sharing** — data transfers compete for client links, object
  storage targets, and the file-server backplane under max-min fairness —
  see :mod:`repro.fs.flows`.

Machine profiles calibrated to the paper's two systems (Jugene/GPFS and
Jaguar/Lustre) live in :mod:`repro.fs.systems`.  :class:`repro.fs.simfs.SimFS`
is a functional in-memory file system (sparse files, directories, op
counts) that the SION layer can run on unmodified via
:class:`repro.backends.simfs_backend.SimBackend`.
"""

from repro.fs.archive import TapeLibrary, compare_archival
from repro.fs.events import Engine
from repro.fs.flows import FlowScheduler, Resource
from repro.fs.interference import DegradingMetadataService, bystander_latency
from repro.fs.metadata import FifoMetadataService, MetadataOp
from repro.fs.simfs import SimFS
from repro.fs.systems import SystemProfile, jaguar, jugene

__all__ = [
    "TapeLibrary",
    "compare_archival",
    "DegradingMetadataService",
    "bystander_latency",
    "Engine",
    "FlowScheduler",
    "Resource",
    "FifoMetadataService",
    "MetadataOp",
    "SimFS",
    "SystemProfile",
    "jugene",
    "jaguar",
]
