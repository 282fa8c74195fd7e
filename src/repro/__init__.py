"""Reproduction of *Scalable Massively Parallel I/O to Task-Local Files*
(W. Frings, F. Wolf, V. Petkov — SC 2009).

Packages
--------
``repro.sion``
    The paper's contribution: a library mapping many logical task-local
    files onto few physical *multifiles* with aligned chunks and internal
    metadata handling.
``repro.simmpi``
    In-process SPMD substrate (MPI-like communicators over threads).
``repro.fs``
    Discrete-event simulated parallel file system with GPFS-like (Jugene)
    and Lustre-like (Jaguar) machine profiles.
``repro.backends``
    Storage abstraction: real POSIX files or the simulated file system.
``repro.baselines``
    The two traditional approaches the paper compares against:
    multiple-file-parallel and single-file-sequential.
``repro.apps``
    The paper's use cases, kept for their I/O: an MP2C-like particle
    mini-app whose particles move and migrate between checkpoints (§5.1
    restart files), and a Scalasca-like tracer, workload and wait-state
    analyzer (§5.2 trace files).
``repro.workloads`` / ``repro.analysis``
    Experiment scenario generators and result/reporting helpers for every
    table and figure of the paper's evaluation.
"""

from repro import errors

__version__ = "1.0.0"

__all__ = ["errors", "__version__"]
