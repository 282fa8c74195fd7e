"""MP2C-like particle mini-app, kept for its restart I/O (paper §5.1).

The real MP2C couples multi-particle collision dynamics with molecular
dynamics under an MPI domain decomposition; Fig. 6 is about its restart
file, not its dynamics.  This mini-app keeps the decomposition and the
restart I/O, and runs them against a state that changes every step —

* :mod:`repro.apps.mp2c.particles` — particle state and the 52-byte
  restart record,
* :mod:`repro.apps.mp2c.decomposition` — regular 3-D domain decomposition
  with ownership migration,
* :mod:`repro.apps.mp2c.checkpoint` — restart-file I/O through three
  methods: ``singlefile`` (MP2C's original), ``tasklocal``, and ``sion``,
  plus a SION restart on a different task count,
* :mod:`repro.apps.mp2c.driver` — a loop that moves every particle one
  ballistic step, migrates it to its new owner and checkpoints on
  schedule.
"""

from repro.apps.mp2c.checkpoint import read_restart, read_restart_any, write_restart
from repro.apps.mp2c.driver import SimulationConfig, run_simulation
from repro.apps.mp2c.particles import ParticleState, RECORD_BYTES

__all__ = [
    "ParticleState",
    "RECORD_BYTES",
    "read_restart",
    "read_restart_any",
    "write_restart",
    "SimulationConfig",
    "run_simulation",
]
