"""The paper's two use cases (Section 5), kept for their I/O.

The mini-apps exist to run the §5.1 and §5.2 I/O patterns against a state
that changes while it runs; no figure rests on their dynamics.

* :mod:`repro.apps.mp2c` — particles that move and migrate under a 3-D
  domain decomposition, with MP2C's checkpoint/restart I/O (52 bytes per
  particle, Fig. 6), restart on another task count included.
* :mod:`repro.apps.scalasca` — an event tracer writing task-local traces,
  a synthetic SMG2000-like workload that fills them, and a parallel
  wait-state analyzer that reads them back (Table 2's I/O pattern).
"""
