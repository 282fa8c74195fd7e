"""Metadata-service brownout: create storms hurt *other* users (paper §1).

The paper: *"our experiences suggest that large-scale file operations can
cause side effects including temporary service disruptions noticeable by
arbitrary users that can jeopardize the stability of the overall system."*

Model: the metadata service serves a FIFO queue; when its backlog reaches
``brownout_threshold`` outstanding operations, every operation (including
an innocent bystander's ``ls`` or ``stat``) is slowed by
``brownout_factor`` until the backlog drains below the threshold again.
:func:`bystander_latency` measures the collateral damage: the latency an
unrelated user's single metadata operation experiences at the height of a
create storm.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelUsageError
from repro.fs.metadata import MetadataCosts, fifo_finish_times


@dataclass
class BystanderResult:
    """Collateral damage a create storm inflicts on an unrelated user."""

    storm_ops: int
    quiet_latency_s: float
    storm_latency_s: float

    @property
    def slowdown(self) -> float:
        if self.quiet_latency_s <= 0:
            return 1.0
        return self.storm_latency_s / self.quiet_latency_s


def bystander_latency(
    costs: MetadataCosts,
    storm_ops: int,
    bystander_kind: str = "stat",
    brownout_threshold: int = 1024,
    brownout_factor: float = 4.0,
) -> BystanderResult:
    """Latency of one innocent ``stat`` issued mid-storm vs. on a quiet system.

    The bystander's op arrives when half the storm has been submitted —
    the worst of the backlog — and must wait for everything ahead of it.
    """
    if storm_ops < 0:
        raise ModelUsageError("storm_ops must be non-negative")

    # Quiet system: the op is served immediately at base cost.
    quiet = costs.base_time(bystander_kind)

    half = storm_ops // 2
    kinds = ["create"] * half + [bystander_kind] + ["create"] * (storm_ops - half)
    # Everyone calls create at t=0, but the server takes the first create
    # before the bystander and the second half of the storm join the queue.
    finish = fifo_finish_times(
        kinds,
        costs,
        late=len(kinds) - half if half else 0,
        brownout_threshold=brownout_threshold,
        brownout_factor=brownout_factor,
    )
    return BystanderResult(
        storm_ops=storm_ops,
        quiet_latency_s=quiet,
        storm_latency_s=finish[half] if storm_ops else quiet,
    )
