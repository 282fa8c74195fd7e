"""File-striping policies and object-storage-target (OST) selection.

Lustre stripes every file across ``stripe_count`` OSTs with a configurable
``stripe_depth``; the OSTs for each new file are drawn round-robin from a
random starting offset, so files may collide on the same targets.  The
number of *distinct* targets actually covered by a set of files governs the
aggregate bandwidth available to them (paper Fig. 4b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ModelUsageError


@dataclass(frozen=True)
class StripingPolicy:
    """Per-file striping parameters.

    ``stripe_count``: number of OSTs a file is spread across.
    ``stripe_depth_bytes``: contiguous bytes per OST before moving on.
    """

    stripe_count: int
    stripe_depth_bytes: int

    def __post_init__(self) -> None:
        if self.stripe_count < 1:
            raise ModelUsageError(f"stripe_count must be >= 1, got {self.stripe_count}")
        if self.stripe_depth_bytes < 1:
            raise ModelUsageError(
                f"stripe_depth_bytes must be >= 1, got {self.stripe_depth_bytes}"
            )

    def depth_efficiency(self, per_request_overhead_bytes: int = 262144) -> float:
        """Fraction of an OST's bandwidth a client realizes at this depth.

        Small stripe depths pay a fixed per-RPC cost each time the client
        switches targets; 8 MB stripes amortize it almost completely while
        1 MB stripes lose ~20% (calibrated to the paper's default-vs-
        optimized gap on Jaguar).
        """
        return self.stripe_depth_bytes / (
            self.stripe_depth_bytes + per_request_overhead_bytes
        )


def assign_osts_roundrobin(
    n_files: int, stripe_count: int, n_targets: int, start: int = 0
) -> list[list[int]]:
    """Deterministic round-robin OST assignment for ``n_files`` files.

    File *i* gets targets ``start + i*stripe_count .. (mod n_targets)``.
    The placement :func:`repro.workloads.common.parallel_io` simulates.
    """
    if n_targets < 1:
        raise ModelUsageError("need at least one target")
    out: list[list[int]] = []
    cursor = start % n_targets
    for _ in range(n_files):
        targets = [(cursor + k) % n_targets for k in range(min(stripe_count, n_targets))]
        out.append(targets)
        cursor = (cursor + stripe_count) % n_targets
    return out


def expected_coverage(n_files: int, stripe_count: int, n_targets: int) -> float:
    """Expected number of distinct OSTs hit by ``n_files`` random files.

    Each file independently lands on ``stripe_count`` targets starting at a
    uniformly random offset (the Lustre allocator under load behaves close
    to random).  The expected coverage is
    ``T * (1 - (1 - s/T)^n)`` for ``s <= T``.
    """
    if n_targets < 1:
        raise ModelUsageError("need at least one target")
    s = min(stripe_count, n_targets)
    miss = (1.0 - s / n_targets) ** n_files
    return n_targets * (1.0 - miss)


def aggregate_stripe_bandwidth(
    n_files: int,
    policy: StripingPolicy,
    n_targets: int,
    per_target_bw: float,
    system_peak: float = math.inf,
) -> float:
    """Aggregate bandwidth (MB/s) of ``n_files`` files under ``policy``.

    Combines expected OST coverage, stripe-depth efficiency, and the system
    backplane cap.  This closed form mirrors what the flow scheduler
    produces for a symmetric all-tasks-write workload and is used for quick
    parameter exploration and property tests.
    """
    coverage = expected_coverage(n_files, policy.stripe_count, n_targets)
    eff = policy.depth_efficiency()
    return min(coverage * per_target_bw * eff, system_peak)
