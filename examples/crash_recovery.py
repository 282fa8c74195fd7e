#!/usr/bin/env python
"""Recovering a multifile after a crash (paper §6's robustness roadmap).

A writer opens the multifile with ``shadow=True`` (32-byte per-chunk
recovery headers), writes checkpoint data, flushes the shadow metadata —
and then "crashes" before the collective close, so metablock 2 is never
written and the file is unreadable.  ``sionrecover`` reconstructs it.

Run:  python examples/crash_recovery.py
"""

import os
import tempfile

from repro import simmpi, sion
from repro.errors import SionFormatError

NTASKS = 8


def crashing_writer(comm, path):
    f = sion.paropen(path, "w", comm, chunksize=32 * 1024, shadow=True)
    payload = f"rank {comm.rank} survived data ".encode() * 2000
    f.fwrite(payload)
    f.flush_shadow()  # checkpoint the recovery metadata
    f._raw.close()  # simulate the process dying: NO parclose
    return len(payload)


def main(workdir):
    path = os.path.join(workdir, "doomed.sion")

    sizes = simmpi.run_spmd(NTASKS, crashing_writer, path)
    print(f"writer 'crashed' after {sum(sizes)} bytes, before the collective close")

    # The multifile is now unreadable: metablock 2 was never written.
    try:
        sion.open(path, "r")
    except SionFormatError as exc:
        print(f"as expected, reading fails: {exc}")

    # Recover from the shadow headers.
    report = sion.recover_multifile(path)
    print(f"\nrecovery: {report.files_recovered} file(s), "
          f"{report.tasks_recovered} task streams, {report.bytes_recovered} bytes")
    for line in report.details:
        print(f"  {line}")

    # Everything is readable again.
    with sion.open(path, "r") as sf:
        for rank in range(NTASKS):
            data = sf.read_task(rank)
            assert data == f"rank {rank} survived data ".encode() * 2000
    print(f"\nall {NTASKS} task streams verified after recovery")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="sion-crash-") as tmp:
        main(tmp)
