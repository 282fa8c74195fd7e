"""The two traditional parallel-I/O approaches the paper compares against.

* :mod:`repro.baselines.tasklocal` — *multiple-file parallel*: every task
  opens its own physical file (the pattern whose metadata contention the
  paper measures in Fig. 3).
* :mod:`repro.baselines.singlefile` — *single-file sequential*: one
  designated I/O task gathers data from all others and writes a single
  file incrementally (MP2C's original checkpoint path, Fig. 6).
"""

from repro.baselines.singlefile import read_single_file, write_single_file
from repro.baselines.tasklocal import (
    read_task_local,
    task_local_path,
    write_task_local,
)

__all__ = [
    "read_single_file",
    "write_single_file",
    "read_task_local",
    "task_local_path",
    "write_task_local",
]
