"""Metadata-contention models.

The paper's Figure 3 shows that creating tens of thousands of files in one
directory serializes: on GPFS the file-system blocks holding the directory
i-node are lock-protected, so concurrent creates queue on the directory
lock; on Lustre all namespace operations queue on the dedicated metadata
server (MDS).  Both reduce to a FIFO service station whose per-operation
service time may grow with the number of entries already in the directory
(hash-chain and journal effects).

:func:`fifo_finish_times` simulates that station op by op;
:func:`batch_completion_time_fast` gives the closed form in O(1), checked
against the simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ModelUsageError

#: The operation kinds a model prices.
_KINDS = ("create", "open", "stat")


@dataclass
class MetadataCosts:
    """Per-operation service times (seconds) for one metadata domain.

    ``load_factor`` adds ``load_factor * queue_depth`` seconds to each
    operation, modelling journal pressure when thousands of operations
    arrive at once (visible as super-linear growth on Jaguar's MDS).
    ``dirsize_factor`` adds ``dirsize_factor * current_directory_entries``,
    modelling hash-chain lookup growth in huge directories.
    """

    create: float = 1e-3
    open: float = 1e-4
    stat: float = 5e-5
    load_factor: float = 0.0
    dirsize_factor: float = 0.0

    def base_time(self, kind: str) -> float:
        if kind not in _KINDS:
            raise ModelUsageError(f"unknown metadata op kind: {kind!r}")
        return float(getattr(self, kind))


def fifo_finish_times(
    kinds: Sequence[str],
    costs: MetadataCosts,
    entries: int = 0,
    *,
    late: int = 0,
    brownout_threshold: float = math.inf,
    brownout_factor: float = 1.0,
) -> list[float]:
    """Finish time of each op a serialized metadata domain serves, in order.

    Every op arrives at t=0 and the station (a directory lock or an MDS
    queue) serves them one at a time in ``kinds`` order.  An op is served
    for its base time, plus ``load_factor`` x the ops queued behind it,
    plus ``dirsize_factor`` x the directory's entries (``entries`` at
    first, one more per finished create); the whole is multiplied by
    ``brownout_factor`` while ``brownout_threshold`` or more ops are
    queued behind it.  The last ``late`` ops join the queue just after the
    station takes the first one, so only the first op does not see them.
    """
    n = len(kinds)
    t = 0.0
    done: list[float] = []
    for i, kind in enumerate(kinds):
        behind = n - 1 - i if i else n - 1 - late
        dt = costs.base_time(kind) + costs.load_factor * behind
        dt += costs.dirsize_factor * entries
        if behind >= brownout_threshold:
            dt *= brownout_factor
        t += dt
        done.append(t)
        if kind == "create":
            entries += 1
    return done


def batch_completion_time_fast(
    n_ops: int, costs: MetadataCosts, kind: str = "create", initial_entries: int = 0
) -> float:
    """Closed-form finish time of ``n_ops`` simultaneous operations.

    Matches :func:`fifo_finish_times` for ``n_ops`` ops of one kind: the
    i-th served operation (0-based) sees ``n_ops - 1 - i`` queued behind
    it and ``initial_entries + created_so_far`` directory entries, summed
    as arithmetic series.
    """
    if n_ops < 0:
        raise ModelUsageError("n_ops must be non-negative")
    base = costs.base_time(kind)
    total = n_ops * base
    # sum of queue depths: (n-1) + (n-2) + ... + 0
    total += costs.load_factor * (n_ops * (n_ops - 1) / 2)
    if kind == "create":
        # entries grow 0,1,2,... on top of the initial count
        total += costs.dirsize_factor * (
            n_ops * initial_entries + n_ops * (n_ops - 1) / 2
        )
    else:
        total += costs.dirsize_factor * n_ops * initial_entries
    return total
