"""Trace event records.

Fixed 32-byte binary records, little-endian: kind, a region or peer id, a
message tag, a byte count, and a double-precision timestamp.  Enough to
replay MPI point-to-point traffic and region nesting — which is what the
late-sender analysis needs.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ReproError

_REC = struct.Struct("<IiiqdI")  # kind, ref, tag, nbytes, timestamp, pad/crc-less
RECORD_BYTES = _REC.size
assert RECORD_BYTES == 32


class EventKind(enum.IntEnum):
    """Event types recorded by the tracer."""

    ENTER = 1  # ref = region id
    EXIT = 2  # ref = region id
    SEND = 3  # ref = destination rank
    RECV = 4  # ref = source rank
    BARRIER_ENTER = 5  # ref = barrier id
    BARRIER_EXIT = 6  # ref = barrier id


@dataclass(frozen=True)
class Event:
    """One trace record."""

    kind: EventKind
    ref: int  # region id (ENTER/EXIT) or peer rank (SEND/RECV)
    tag: int = 0
    nbytes: int = 0
    timestamp: float = 0.0

    def encode(self) -> bytes:
        return _REC.pack(int(self.kind), self.ref, self.tag, self.nbytes, self.timestamp, 0)

    @classmethod
    def decode(cls, raw: bytes) -> "Event":
        if len(raw) != RECORD_BYTES:
            raise ReproError(f"event record must be {RECORD_BYTES} bytes, got {len(raw)}")
        kind, ref, tag, nbytes, ts, _pad = _REC.unpack(raw)
        try:
            ekind = EventKind(kind)
        except ValueError:
            raise ReproError(f"unknown event kind {kind}") from None
        return cls(kind=ekind, ref=ref, tag=tag, nbytes=nbytes, timestamp=ts)


def encode_events(events: Iterable[Event]) -> bytes:
    """Serialize an event sequence into a flat record stream."""
    return b"".join(e.encode() for e in events)


def decode_events(raw: bytes) -> list[Event]:
    """Parse a record stream back into events."""
    if len(raw) % RECORD_BYTES:
        raise ReproError(
            f"trace length {len(raw)} is not a multiple of {RECORD_BYTES}"
        )
    return [
        Event.decode(raw[i : i + RECORD_BYTES])
        for i in range(0, len(raw), RECORD_BYTES)
    ]
