"""Closed-form performance model, cross-validated against the simulator.

The simulator in :mod:`repro.fs` computes the experiments op by op and
completion by completion (the FIFO loop
:func:`~repro.fs.metadata.fifo_finish_times` and the flow loop
:func:`~repro.fs.flows.finish_times`); this module predicts the same
quantities analytically.  Tests assert the two agree, which pins down the
simulator's semantics (and catches regressions in either).  The formulas
also make the calibration targets in :mod:`repro.fs.systems` auditable:
each paper endpoint maps to one term here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fs.metadata import batch_completion_time_fast
from repro.fs.striping import StripingPolicy
from repro.fs.systems import SystemProfile
from repro.workloads.filecreate import OpenTrace, open_trace_time


@dataclass(frozen=True)
class BandwidthPrediction:
    """The binding constraint and the resulting aggregate bandwidth."""

    bandwidth_mb_s: float
    binding_constraint: str  # "clients" | "backplane" | "files" | "rate_cap"


def predict_create_time(profile: SystemProfile, ntasks: int, kind: str = "create") -> float:
    """Fig. 3 task-local curves: the serialized metadata batch."""
    initial = ntasks if kind == "open" else 0
    return batch_completion_time_fast(
        ntasks, profile.metadata_costs, kind=kind, initial_entries=initial
    )


def predict_open_trace(ntasks: int, nfiles: int = 1) -> OpenTrace:
    """The library's ``"w"`` open trace (blocked mapping) in closed form.

    One create per file, one open and 28 metablock bytes per task, 84 per
    file, and the waves of the one-file or the split-world cycle.
    """
    if nfiles == 1:
        waves = [(ntasks, "bcast"), (ntasks, "gather")] * 2
    else:
        base, extra = divmod(ntasks, nfiles)
        groups = [base + 1] * extra + [base] * (nfiles - extra)
        waves = [(ntasks, "bcast"), (ntasks, "split"), (ntasks, "gather")] + [
            (size, kind) for size in groups for kind in ("bcast", "gather", "gather")
        ]
    metablock_bytes = 28 * ntasks + 84 * nfiles
    return OpenTrace(ntasks, "w", nfiles, nfiles, ntasks, metablock_bytes, 0, tuple(sorted(waves)))


def predict_sion_create_time(profile: SystemProfile, ntasks: int, nfiles: int = 1) -> float:
    """Fig. 3 SION curve at any scale: the closed-form trace, priced."""
    return open_trace_time(profile, predict_open_trace(ntasks, nfiles))


def predict_bandwidth(
    profile: SystemProfile,
    ntasks: int,
    op: str,
    nfiles: int,
    striping: StripingPolicy | None = None,
    tasklocal: bool = False,
    rate_cap_per_task: float | None = None,
) -> BandwidthPrediction:
    """Symmetric-transfer aggregate bandwidth: min over the constraints.

    Matches :func:`repro.workloads.common.parallel_io` for balanced
    scenarios (every file holds the same number of tasks, stripe placement
    collision-free), which is exactly the regime of Figs. 4-5.
    """
    if tasklocal:
        nfiles = ntasks
    candidates: dict[str, float] = {}
    candidates["clients"] = profile.aggregate_client_bw(ntasks)
    candidates["backplane"] = profile.backplane_after_overheads(
        op,
        n_shared_files=0 if tasklocal else nfiles,
        n_tasklocal_files=ntasks if tasklocal else 0,
    )
    cap = rate_cap_per_task if rate_cap_per_task is not None else profile.client_bw_per_task
    candidates["rate_cap"] = cap * ntasks

    if profile.fs_type == "gpfs":
        if not tasklocal:
            candidates["files"] = nfiles * profile.per_file_bw(op)
    else:
        pol = striping or profile.default_striping
        per_target = (
            profile.target_write_bw if op == "write" else profile.target_read_bw
        )
        stripe = min(pol.stripe_count, profile.n_targets)
        distinct = min(nfiles * stripe, profile.n_targets)
        candidates["files"] = distinct * per_target * pol.depth_efficiency()

    constraint = min(candidates, key=candidates.get)  # type: ignore[arg-type]
    return BandwidthPrediction(
        bandwidth_mb_s=candidates[constraint], binding_constraint=constraint
    )


def predict_alignment_factor(
    profile: SystemProfile, configured_blk: int, op: str = "write"
) -> float:
    """Table 1's rightmost column from the lock model alone."""
    k = profile.lock_model.sharers_per_block(configured_blk, profile.fs_block_size)
    return profile.lock_model.penalty(op, k)
