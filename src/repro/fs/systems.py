"""Calibrated machine profiles for the paper's two evaluation systems.

The constants below are calibrated so the *reported endpoints* of the
paper's figures come out right (see DESIGN.md §5); every mechanism — the
directory-lock serialization, per-file token caps, OST striping, block-lock
false sharing, client caching — is modelled structurally, so the shapes in
between follow from the model rather than from curve fitting.

All bandwidths are MB/s (decimal, 1e6 bytes), all times are seconds, all
sizes are bytes unless suffixed otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ModelUsageError
from repro.fs.cache import NO_CACHE, ClientCacheModel
from repro.fs.locks import LockContentionModel
from repro.fs.metadata import MetadataCosts
from repro.fs.striping import StripingPolicy

MiB = 1 << 20
GiB = 1 << 30
MB = 10**6
GB = 10**9


@dataclass(frozen=True)
class SystemProfile:
    """Everything the workload generators need to know about one machine."""

    name: str
    fs_type: str  # "gpfs" | "lustre"
    total_cores: int
    cores_per_node: int
    fs_block_size: int

    # Server-side data path.
    peak_write_bw: float
    peak_read_bw: float
    nominal_peak_bw: float  # the marketing number drawn as "peak" in figures
    n_targets: int
    target_write_bw: float
    target_read_bw: float

    # Per-shared-file limits (GPFS token-manager / metanode path).  For
    # Lustre these are derived from striping instead; see per_file_bw().
    per_file_write_bw: float | None
    per_file_read_bw: float | None

    # Backplane bandwidth consumed per file by token/metadata traffic.
    shared_file_overhead_bw: float  # for shared (multi-writer) files
    tasklocal_file_overhead_bw: float  # for one-writer task-local files

    # Client-side path.
    client_bw_per_task: float
    ionode_ratio: int | None  # compute tasks per I/O node; None = direct-attach
    ionode_bw: float

    # Metadata path.
    metadata_costs: MetadataCosts
    shared_open_time: float  # serialized per-client grant on one shared file
    collective_latency: float  # per-hop latency of gather/bcast trees

    # Sub-models.
    lock_model: LockContentionModel = field(default=LockContentionModel(0.0, 0.0))
    cache_model: ClientCacheModel = field(default=NO_CACHE)
    default_striping: StripingPolicy = field(default=StripingPolicy(1, MiB))
    optimized_striping: StripingPolicy | None = None

    # -- derived quantities ------------------------------------------------

    def n_nodes(self, ntasks: int) -> int:
        """Compute nodes hosting ``ntasks`` (1 task per core)."""
        return max(1, math.ceil(ntasks / self.cores_per_node))

    def aggregate_client_bw(self, ntasks: int) -> float:
        """Bandwidth the compute side can push for ``ntasks`` writers."""
        bw = ntasks * self.client_bw_per_task
        if self.ionode_ratio is not None:
            n_ionodes = max(1, math.ceil(ntasks / self.ionode_ratio))
            bw = min(bw, n_ionodes * self.ionode_bw)
        return bw

    def per_file_bw(self, op: str, striping: StripingPolicy | None = None) -> float:
        """Bandwidth cap of a single shared physical file.

        GPFS: fixed token-manager/metanode limit.  Lustre: stripe_count
        targets at stripe-depth efficiency.
        """
        if self.fs_type == "gpfs":
            cap = self.per_file_write_bw if op == "write" else self.per_file_read_bw
            assert cap is not None
            return cap
        pol = striping or self.default_striping
        per_target = self.target_write_bw if op == "write" else self.target_read_bw
        return min(pol.stripe_count, self.n_targets) * per_target * pol.depth_efficiency()

    def peak_bw(self, op: str) -> float:
        """Backplane capacity for ``op`` in {'write', 'read'}."""
        if op == "write":
            return self.peak_write_bw
        if op == "read":
            return self.peak_read_bw
        raise ModelUsageError(f"op must be 'read' or 'write', got {op!r}")

    def backplane_after_overheads(
        self, op: str, n_shared_files: int = 0, n_tasklocal_files: int = 0
    ) -> float:
        """Backplane bandwidth left after per-file token/metadata traffic."""
        bw = self.peak_bw(op)
        bw -= self.shared_file_overhead_bw * n_shared_files
        bw -= self.tasklocal_file_overhead_bw * n_tasklocal_files
        return max(bw, 1.0)


def jugene() -> SystemProfile:
    """IBM Blue Gene/P at JSC: 65,536 cores, GPFS 3.2.1, ~6 GB/s scratch.

    Calibration targets (paper): 64K parallel creates ≈ 6 min; opening 64K
    existing files ≈ 1 min; SION multifile creation < 3 s; single shared
    file ≈ 2.4 GB/s; saturation ≈ 6 GB/s between 8 and 32 files; Table 1
    alignment penalties 2.53x (write) / 1.78x (read).
    """
    return SystemProfile(
        name="Jugene",
        fs_type="gpfs",
        total_cores=65536,
        cores_per_node=4,
        fs_block_size=2 * MiB,
        peak_write_bw=6200.0,
        peak_read_bw=6400.0,
        nominal_peak_bw=6000.0,
        n_targets=32,  # GPFS NSD server count
        target_write_bw=6200.0 / 32,
        target_read_bw=6400.0 / 32,
        per_file_write_bw=2400.0,
        per_file_read_bw=2800.0,
        shared_file_overhead_bw=3.0,
        tasklocal_file_overhead_bw=0.016,
        client_bw_per_task=10.0,
        ionode_ratio=512,
        ionode_bw=750.0,
        metadata_costs=MetadataCosts(
            create=5.4e-3,
            open=0.9e-3,
            stat=1e-4,
            close=2e-5,
            unlink=2e-3,
            mkdir=5.4e-3,
            load_factor=0.0,
            dirsize_factor=1e-8,
        ),
        shared_open_time=4.0e-5,
        collective_latency=1.0e-5,
        lock_model=LockContentionModel(write_coeff=1.55, read_coeff=0.79),
        cache_model=NO_CACHE,
        default_striping=StripingPolicy(1, 2 * MiB),
        optimized_striping=None,
    )


def jaguar() -> SystemProfile:
    """Cray XT4 at ORNL: 31,328 cores, Lustre 1.6.5, 40 GB/s nominal.

    Calibration targets (paper): 12K parallel creates ≈ 5 min; opening 12K
    existing files ≈ 20 s; SION creation < 10 s; default striping (4 OSTs,
    1 MB) rises to ~25-30 GB/s by ~32 files; optimized striping (64 OSTs,
    8 MB) good from 2 files and always superior; reads exceed the 40 GB/s
    peak at large task counts due to client caching; no alignment penalty.
    """
    return SystemProfile(
        name="Jaguar",
        fs_type="lustre",
        total_cores=31328,
        cores_per_node=4,
        fs_block_size=2 * MiB,
        peak_write_bw=26000.0,
        peak_read_bw=30000.0,
        nominal_peak_bw=40000.0,
        n_targets=144,  # 72 OSS nodes x 2 OSTs
        target_write_bw=550.0,
        target_read_bw=600.0,
        per_file_write_bw=None,
        per_file_read_bw=None,
        shared_file_overhead_bw=1.0,
        tasklocal_file_overhead_bw=0.15,
        client_bw_per_task=75.0,
        ionode_ratio=None,
        ionode_bw=math.inf,
        metadata_costs=MetadataCosts(
            create=24e-3,
            open=1.55e-3,
            stat=2e-4,
            close=2e-5,
            unlink=8e-3,
            mkdir=24e-3,
            load_factor=0.5e-6,
            dirsize_factor=0.0,
        ),
        shared_open_time=4.0e-4,
        collective_latency=2.0e-6,
        lock_model=LockContentionModel(write_coeff=0.0, read_coeff=0.0),
        cache_model=ClientCacheModel(
            bytes_per_node=6 * GB, cache_bw_per_node=1000.0, hit_efficiency=0.35
        ),
        default_striping=StripingPolicy(4, 1 * MiB),
        optimized_striping=StripingPolicy(64, 8 * MiB),
    )


#: Registry of the paper's evaluation systems by lowercase name.
SYSTEMS = {"jugene": jugene, "jaguar": jaguar}


def get_system(name: str) -> SystemProfile:
    """Look up a profile by (case-insensitive) name."""
    try:
        return SYSTEMS[name.lower()]()
    except KeyError:
        raise ModelUsageError(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}"
        ) from None
