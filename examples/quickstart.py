#!/usr/bin/env python
"""Quickstart: map 8 task-local logical files onto one physical multifile.

Mirrors the paper's Listings 1 and 2: a collective open, ANSI-style writes
guarded by ``ensure_free_space``, a collective close — then the same data
read back both in parallel and through the serial global view.

Run:  python examples/quickstart.py
"""

import os
import tempfile

from repro import simmpi, sion
from repro.utils.dump import dump_multifile, format_dump

NTASKS = 8


def parallel_write(comm, path):
    """Every task writes its own logical file into the shared multifile."""
    f = sion.paropen(path, "w", comm, chunksize=64 * 1024)  # collective
    for piece in range(4):
        data = f"task {comm.rank} / record {piece};".encode() * 100
        f.ensure_free_space(len(data))  # may advance to a fresh chunk
        f.write(data)  # plain write, like fwrite(3)
    f.parclose()  # collective


def parallel_read(comm, path):
    """Listing 2's read loop: feof + bytes_avail_in_chunk + read."""
    f = sion.paropen(path, "r", comm)
    parts = []
    while not f.feof():
        parts.append(f.read(f.bytes_avail_in_chunk()))
    f.parclose()
    return b"".join(parts)


def main(workdir):
    path = os.path.join(workdir, "data.sion")

    # 1. Parallel write: 8 logical task-local files -> ONE physical file.
    simmpi.run_spmd(NTASKS, parallel_write, path)
    print(f"wrote multifile: {path}")
    print(f"directory holds {len(os.listdir(workdir))} physical file(s) "
          f"for {NTASKS} logical files\n")

    # 2. Inspect it with the dump tool.
    print(format_dump(dump_multifile(path), verbose=True), "\n")

    # 3. Parallel read-back.
    contents = simmpi.run_spmd(NTASKS, parallel_read, path)
    for rank, data in enumerate(contents):
        expected = b"".join(
            f"task {rank} / record {p};".encode() * 100 for p in range(4)
        )
        assert data == expected, f"rank {rank} read back wrong data"
    print(f"parallel read-back verified for {NTASKS} tasks")

    # 4. Serial access (what post-processing tools use).
    with sion.open(path, "r") as sf:
        loc = sf.get_locations()
        print(f"serial view: {loc.ntasks} tasks, {loc.total_bytes()} bytes total")
        assert sf.read_task(3) == contents[3]
    print("serial global view verified")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="sion-quickstart-") as tmp:
        main(tmp)
