"""File-striping policies and object-storage-target (OST) selection.

Lustre stripes every file across ``stripe_count`` OSTs with a configurable
``stripe_depth``; the OSTs for each new file are handed out round-robin from
a moving cursor, so files share targets only once the pool wraps.  The
number of *distinct* targets a set of files covers governs the aggregate
bandwidth available to them (paper Fig. 4b); the flow model in
:func:`repro.workloads.common.parallel_io` prices it.
"""

from __future__ import annotations

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
    n_files: int, stripe_count: int, n_targets: int
) -> list[list[int]]:
    """Deterministic round-robin OST assignment for ``n_files`` files.

    File *i* gets targets ``i*stripe_count .. (mod n_targets)``.  The
    targets of a profile are identical, so a different starting offset
    would only rotate the placement.  The placement
    :func:`repro.workloads.common.parallel_io` simulates.
    """
    if n_targets < 1:
        raise ModelUsageError("need at least one target")
    stripe = min(stripe_count, n_targets)
    return [
        [(i * stripe_count + k) % n_targets for k in range(stripe)]
        for i in range(n_files)
    ]
