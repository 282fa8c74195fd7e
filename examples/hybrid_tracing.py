#!/usr/bin/env python
"""Hybrid MPI+threads tracing with per-thread multifiles (paper §6).

The paper plans hybrid support "via a separate multifile for every OpenMP
thread identifier, resulting in at most four multifiles on Jugene with its
four cores per node."  This example runs 8 SPMD ranks, each driving 4
concurrent worker threads; every (rank, thread) pair owns a logical
task-local log — 32 logical files — yet only 4 physical multifile sets
appear on disk, and each is written through the text-mode API with write
coalescing.

Run:  python examples/hybrid_tracing.py
"""

import os
import tempfile
import threading

from repro import simmpi
from repro.sion.buffering import CoalescingWriter
from repro.sion.hybrid import open_rank_thread, paropen_hybrid
from repro.sion.text import TextReader, TextWriter

NRANKS = 8
NTHREADS = 4
STEPS = 50


def worker(handle, rank, tid):
    """One 'OpenMP thread': log fine-grained progress lines."""
    stream = handle.stream(tid)
    with CoalescingWriter(stream, buffer_size=8 * 1024) as coalesced:
        text = TextWriter(coalesced)
        for step in range(STEPS):
            text.printf("rank={} thread={} step={} residual={:.6f}",
                        rank, tid, step, 1.0 / (step + 1))


def program(comm, path):
    handle = paropen_hybrid(path, "w", comm, NTHREADS, chunksize=16 * 1024)
    threads = [
        threading.Thread(target=worker, args=(handle, comm.rank, t))
        for t in range(NTHREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    handle.parclose()


def main(workdir):
    path = os.path.join(workdir, "joblog.sion")

    simmpi.run_spmd(NRANKS, program, path)

    files = sorted(os.listdir(workdir))
    print(f"{NRANKS} ranks x {NTHREADS} threads = {NRANKS * NTHREADS} logical logs")
    print(f"physical files on disk ({len(files)}): {files}\n")
    assert len(files) == NTHREADS  # "at most four multifiles"

    # Read one (rank, thread) log back through the task-local view.
    with open_rank_thread(path, rank=5, thread=2) as rf:
        lines = TextReader(rf).read_lines()
    print(f"rank 5 / thread 2 logged {len(lines)} lines; first and last:")
    print(f"  {lines[0]}")
    print(f"  {lines[-1]}")
    assert len(lines) == STEPS
    assert lines[0] == "rank=5 thread=2 step=0 residual=1.000000"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="hybrid-") as tmp:
        main(tmp)
