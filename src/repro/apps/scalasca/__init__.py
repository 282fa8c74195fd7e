"""Scalasca-like event tracing and wait-state analysis (paper §5.2).

The toolchain mirrors Fig. 7 of the paper:

1. an *instrumented application* (here, the synthetic SMG2000-like
   workload in :mod:`repro.apps.scalasca.smg2000`) emits events into a
   per-task collection buffer (:mod:`repro.apps.scalasca.tracer`);
2. at measurement finalization every task writes its buffer — zlib
   compressed, as the real Scalasca does — to a task-local trace through
   either physical task-local files or a SION multifile;
3. a *parallel trace analyzer* (:mod:`repro.apps.scalasca.analyzer`)
   loads the traces postmortem (SION: the serial interface in task-local
   view mode, exactly as the paper describes) and searches for
   late-sender wait states.

Table 2's "measurement activation" is step 2's file creation plus tracer
initialization.  The workload and the analyzer exist to produce and read
back that I/O: the analyzer's late-sender search finds the imbalance the
workload injects.
"""

from repro.apps.scalasca.events import Event, EventKind, decode_events, encode_events
from repro.apps.scalasca.tracer import Tracer, TraceExperiment
from repro.apps.scalasca.analyzer import analyze_traces, AnalysisResult
from repro.apps.scalasca.smg2000 import generate_smg2000_trace

__all__ = [
    "Event",
    "EventKind",
    "encode_events",
    "decode_events",
    "Tracer",
    "TraceExperiment",
    "analyze_traces",
    "AnalysisResult",
    "generate_smg2000_trace",
]
