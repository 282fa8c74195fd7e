#!/usr/bin/env python
"""Scalasca-style trace I/O and wait-state analysis (paper §5.2, Fig. 7).

The trace I/O is what Table 2 measures: an SMG2000-like synthetic
workload with an injected load imbalance is traced on 16 SPMD tasks, and
each task's events go to its logical task-local trace inside a SION
multifile (zlib-compressed, chunk size = buffer capacity — the exact
configuration the paper describes).  The parallel analyzer then reads the
traces back postmortem and checks that the Late Sender wait states it
finds blame only the injected slow ranks.

Run:  python examples/trace_analysis.py
"""

import os
import tempfile

from repro import simmpi
from repro.apps.scalasca.analyzer import analyze_barriers, analyze_traces
from repro.apps.scalasca.smg2000 import (
    SMG2000Config,
    generate_smg2000_trace,
    is_imbalanced,
)
from repro.apps.scalasca.tracer import TraceExperiment

NTASKS = 16


def trace_and_analyze(comm, path, cfg):
    # Measurement activation: creates the trace files (Table 2's phase).
    exp = TraceExperiment(comm, path, method="sion", nfiles=2)
    exp.activate()

    # "Application run": the instrumented solver emits events.
    generate_smg2000_trace(comm.rank, cfg, exp.tracer)

    # Measurement finalization: compress + write the collection buffer.
    stats = exp.finalize()

    # Postmortem parallel analysis over the same task count.
    result = analyze_traces(comm, path, method="sion")
    barriers = analyze_barriers(comm, path, method="sion")
    return stats, result, barriers


def main(workdir):
    path = os.path.join(workdir, "traces.sion")
    cfg = SMG2000Config(ntasks=NTASKS, iterations=6, levels=3,
                        imbalance=0.8, imbalanced_fraction=0.25, seed=11)

    out = simmpi.run_spmd(NTASKS, trace_and_analyze, path, cfg)
    stats = [s for s, _, _ in out]
    result = out[0][1]
    barriers = out[0][2]

    raw = sum(s.uncompressed_bytes for s in stats)
    disk = sum(s.written_bytes for s in stats)
    print(f"traced {NTASKS} tasks: {raw} bytes of events, "
          f"{disk} on disk (zlib, {disk / raw:.0%})")
    print(f"physical files in {workdir}: {sorted(os.listdir(workdir))}\n")

    print("late-sender analysis:")
    print(f"  wait states found:   {result.n_wait_states}")
    print(f"  total waiting time:  {result.total_wait_time * 1e3:.3f} ms")
    print(f"  worst single wait:   {result.worst_states[0].wait_time * 1e3:.3f} ms")

    slow = sorted({w.sender for w in result.worst_states})
    print(f"  blamed senders:      ranks {slow}")
    truly_slow = [r for r in range(NTASKS) if is_imbalanced(r, cfg)]
    print(f"  injected slow ranks: {truly_slow}")
    assert set(slow) <= set(truly_slow), "analysis blamed an innocent rank"
    print("  -> the late-sender blame matches the injected imbalance exactly")

    print("\nwait-at-barrier analysis:")
    print(f"  barrier instances:   {barriers.n_instances}")
    print(f"  total barrier wait:  {barriers.total_wait_time * 1e3:.3f} ms")
    if barriers.total_wait_time < 1e-9:
        print("  -> near zero: the halo exchanges already absorbed the "
              "imbalance before each barrier (every rank neighbours a slow "
              "one) — the waiting shows up as Late Sender instead")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="scalasca-") as tmp:
        main(tmp)
