"""Storage backends for the SION layer.

The SION multifile code is written against the small :class:`~repro.backends.base.Backend`
interface so the same layout/format logic runs on real POSIX files
(:class:`~repro.backends.localfs.LocalBackend`) and on the simulated
parallel file system (:class:`~repro.backends.simfs_backend.SimBackend`).
One decorator records what crosses that interface:
:class:`~repro.backends.journal.Journal` keeps a row per call, and the
call counts (:class:`~repro.backends.instrument.CountingBackend`), the
one in-flight failure (rank *r* raises at its call *k*) and the crash
states a recorded cycle can leave are all built on its rows.
"""

from repro.backends.base import Backend, RawFile
from repro.backends.journal import Journal
from repro.backends.localfs import LocalBackend
from repro.backends.simfs_backend import SimBackend

__all__ = [
    "Backend",
    "RawFile",
    "LocalBackend",
    "SimBackend",
    "Journal",
]
