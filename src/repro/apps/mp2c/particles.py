"""Particle state and the 52-byte restart record.

The paper notes MP2C stores **52 bytes per particle** in its restart
files; we use the natural encoding that produces exactly that:
``uint32`` particle id + 3 x ``float64`` position + 3 x ``float64``
velocity = 4 + 24 + 24 = 52 bytes, packed little-endian in that order
(one :data:`RECORD_DTYPE` row, the bytes of ``struct.pack("<I3d3d", ...)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError

_ID_DTYPE = np.dtype("<u4")
_COORD_DTYPE = np.dtype("<f8")

#: One packed restart record: id, position, velocity.
RECORD_DTYPE = np.dtype(
    [("id", _ID_DTYPE), ("pos", _COORD_DTYPE, (3,)), ("vel", _COORD_DTYPE, (3,))]
)

#: Bytes per particle in a restart record (paper §5.1).
RECORD_BYTES = RECORD_DTYPE.itemsize


@dataclass
class ParticleState:
    """A set of particles owned by one task.

    ``ids`` are globally unique; ``pos`` and ``vel`` are ``(n, 3)`` arrays.
    """

    ids: np.ndarray
    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self) -> None:
        # Copies what is not a C-contiguous, aligned, writeable array, which
        # includes every field of a record buffer read from a file.
        self.ids = np.require(self.ids, _ID_DTYPE, "CAW")
        self.pos = np.require(self.pos, _COORD_DTYPE, "CAW")
        self.vel = np.require(self.vel, _COORD_DTYPE, "CAW")
        n = len(self.ids)
        if self.pos.shape != (n, 3) or self.vel.shape != (n, 3):
            raise ReproError(
                f"inconsistent particle arrays: ids={n}, pos={self.pos.shape}, "
                f"vel={self.vel.shape}"
            )

    @property
    def n(self) -> int:
        """Number of particles held."""
        return len(self.ids)

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls) -> "ParticleState":
        return cls(
            ids=np.empty(0, dtype=_ID_DTYPE),
            pos=np.empty((0, 3), dtype=_COORD_DTYPE),
            vel=np.empty((0, 3), dtype=_COORD_DTYPE),
        )

    @classmethod
    def random(
        cls,
        n: int,
        box: tuple[float, float, float],
        temperature: float = 1.0,
        seed: int = 0,
        id_offset: int = 0,
    ) -> "ParticleState":
        """Uniform positions in ``box``, Maxwellian velocities."""
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0.0, 1.0, size=(n, 3)) * np.asarray(box)
        vel = rng.normal(0.0, np.sqrt(temperature), size=(n, 3))
        if n > 0:
            vel -= vel.mean(axis=0)  # zero net momentum
        ids = np.arange(id_offset, id_offset + n, dtype=_ID_DTYPE)
        return cls(ids=ids, pos=pos, vel=vel)

    # -- set operations ------------------------------------------------------

    def select(self, mask: np.ndarray) -> "ParticleState":
        """Subset by boolean mask (copies)."""
        return ParticleState(self.ids[mask].copy(), self.pos[mask].copy(), self.vel[mask].copy())

    @classmethod
    def concatenate(cls, parts: list["ParticleState"]) -> "ParticleState":
        """Merge particle sets (order preserved)."""
        parts = [p for p in parts if p.n > 0]
        if not parts:
            return cls.empty()
        return cls(
            ids=np.concatenate([p.ids for p in parts]),
            pos=np.concatenate([p.pos for p in parts]),
            vel=np.concatenate([p.vel for p in parts]),
        )

    def sorted_by_id(self) -> "ParticleState":
        """Canonical ordering, for state comparison in tests."""
        order = np.argsort(self.ids, kind="stable")
        return ParticleState(self.ids[order], self.pos[order], self.vel[order])

    # -- restart records --------------------------------------------------------

    def to_records(self) -> bytes:
        """Pack into the 52-byte-per-particle restart format."""
        rec = np.empty(self.n, dtype=RECORD_DTYPE)
        rec["id"], rec["pos"], rec["vel"] = self.ids, self.pos, self.vel
        return rec.tobytes()

    @classmethod
    def from_records(cls, raw: bytes) -> "ParticleState":
        """Unpack a restart record stream."""
        if len(raw) % RECORD_BYTES:
            raise ReproError(
                f"restart data length {len(raw)} is not a multiple of "
                f"{RECORD_BYTES}"
            )
        rec = np.frombuffer(raw, dtype=RECORD_DTYPE)
        return cls(ids=rec["id"], pos=rec["pos"], vel=rec["vel"])


def equal_states(a: ParticleState, b: ParticleState) -> bool:
    """Exact equality up to particle order (checkpoint roundtrip check)."""
    if a.n != b.n:
        return False
    sa, sb = a.sorted_by_id(), b.sorted_by_id()
    return (
        bool(np.array_equal(sa.ids, sb.ids))
        and bool(np.array_equal(sa.pos, sb.pos))
        and bool(np.array_equal(sa.vel, sb.vel))
    )
