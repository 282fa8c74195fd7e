"""``sionsplit``: recreate physical task-local files from a multifile.

"The split tool extracts all or only distinct logical files from a given
multifile and recreates the corresponding physical files" (paper §3.3).
"""

from __future__ import annotations

from repro.backends.base import Backend
from repro.backends.localfs import LocalBackend
from repro.errors import SionUsageError
from repro.sion import serial


def split_multifile(
    path: str,
    out_pattern: str,
    ranks: list[int] | None = None,
    backend: Backend | None = None,
) -> list[str]:
    """Extract logical files into separate physical files.

    ``out_pattern`` must contain ``{rank}`` (e.g. ``"out/task_{rank:06d}.dat"``).
    ``ranks`` selects a subset (default: all).  Returns the written paths.
    Compressed multifiles are transparently decompressed — the extracted
    files hold the original logical bytes.
    """
    if "{rank" not in out_pattern:
        raise SionUsageError(
            "out_pattern must contain a '{rank}' placeholder, "
            f"got {out_pattern!r}"
        )
    backend = backend if backend is not None else LocalBackend()
    written: list[str] = []
    with serial.open(path, "r", backend=backend) as sf:
        todo = ranks if ranks is not None else list(range(sf.ntasks))
        for rank in todo:
            if not 0 <= rank < sf.ntasks:
                raise SionUsageError(
                    f"rank {rank} out of range ({sf.ntasks} tasks)"
                )
            data = sf.read_task(rank)
            out_path = out_pattern.format(rank=rank)
            with backend.open(out_path, "wb") as out:
                out.pwrite(0, data)
            written.append(out_path)
    return written
