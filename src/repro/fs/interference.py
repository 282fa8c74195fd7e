"""Metadata-service brownout: create storms hurt *other* users (paper §1).

The paper: *"our experiences suggest that large-scale file operations can
cause side effects including temporary service disruptions noticeable by
arbitrary users that can jeopardize the stability of the overall system."*

Model: the metadata service serves a FIFO queue; when its backlog exceeds
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
from repro.fs.events import Engine
from repro.fs.metadata import FifoMetadataService, MetadataCosts, MetadataOp


@dataclass
class DegradingMetadataService(FifoMetadataService):
    """FIFO metadata service whose rate collapses under deep backlogs."""

    brownout_threshold: int = 1024
    brownout_factor: float = 4.0
    brownouts_entered: int = 0

    def service_time(self, kind: str) -> float:
        base = super().service_time(kind)
        if len(self._queue) >= self.brownout_threshold:
            self.brownouts_entered += 1
            return base * self.brownout_factor
        return base


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

    engine = Engine()
    svc = DegradingMetadataService(
        engine,
        costs,
        name="dir",
        brownout_threshold=brownout_threshold,
        brownout_factor=brownout_factor,
    )
    half = storm_ops // 2
    done: dict[str, float] = {}
    for i in range(half):
        svc.submit(MetadataOp("create", f"/run/task{i:06d}", task=i))
    submit_time_holder: list[float] = []

    def _submit_bystander() -> None:
        submit_time_holder.append(engine.now)
        svc.submit(
            MetadataOp(bystander_kind, "/home/other-user/file", task=-1),
            callback=lambda ts, op: done.__setitem__("t", ts),
        )
        for i in range(half, storm_ops):
            svc.submit(MetadataOp("create", f"/run/task{i:06d}", task=i))

    # The bystander op arrives one service-quantum into the storm (the
    # queue is already fully formed — everyone called create at t=0).
    engine.schedule_at(0.0, _submit_bystander)
    engine.run()
    storm_latency = done["t"] - submit_time_holder[0] if storm_ops else quiet
    return BystanderResult(
        storm_ops=storm_ops,
        quiet_latency_s=quiet,
        storm_latency_s=storm_latency,
    )
