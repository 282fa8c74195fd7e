"""Experiment scenario generators for every table and figure of the paper.

Each module drives the simulated file system (:mod:`repro.fs`) with the
operation pattern the paper's measurements generated; every SION open in
them prices the ops of a real ``paropen`` → ``parclose``
(:func:`~repro.workloads.filecreate.sion_open_time`):

========================  =============================================
:mod:`~repro.workloads.filecreate`   Fig. 3a/3b — parallel create/open of task-local files vs. SION multifile creation
:mod:`~repro.workloads.bandwidth`    Fig. 4a/4b — bandwidth vs. number of physical files (and striping)
:mod:`~repro.workloads.alignment`    Table 1    — FS-block alignment vs. false sharing
:mod:`~repro.workloads.taskbw`       Fig. 5a/5b — SION vs. task-local bandwidth over task counts
:mod:`~repro.workloads.mp2c_io`      Fig. 6     — MP2C restart I/O: single-file-sequential vs. SION
:mod:`~repro.workloads.scalasca_io`  Table 2    — Scalasca measurement activation and write bandwidth
:mod:`~repro.workloads.repartition`  §1/§3 scenario — checkpoint with n tasks, analyze with m readers
========================  =============================================
"""

from repro.workloads.common import IOResult, parallel_io

__all__ = ["IOResult", "parallel_io"]
