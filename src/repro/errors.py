"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one type.  Sub-hierarchies mirror
the package layout: SPMD substrate, simulated file system, and the SION
multifile layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# simmpi


class SimMPIError(ReproError):
    """Base class for SPMD-substrate errors."""


class CommunicatorError(SimMPIError):
    """Invalid communicator usage (bad rank, mismatched collective, ...)."""


class CollectiveMismatchError(CommunicatorError):
    """Ranks of one communicator called different collectives concurrently."""


class CommAbortedError(SimMPIError):
    """A rank's communication was broken off because another rank failed.

    Abort *fallout*: the engines report it only when no primary failure
    remains to explain it, so a rank's own error is never mistaken for
    fallout by its message text.
    """


class SpmdWorkerError(SimMPIError):
    """One or more SPMD workers raised; carries the per-rank exceptions."""

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = dict(failures)
        ranks = ", ".join(str(r) for r in sorted(self.failures))
        first = next(iter(sorted(self.failures.items())))
        super().__init__(
            f"{len(self.failures)} SPMD worker(s) failed (ranks {ranks}); "
            f"first failure on rank {first[0]}: {first[1]!r}"
        )


# ---------------------------------------------------------------------------
# Simulated file system


class SimFSError(ReproError):
    """Base class for simulated-file-system errors."""


class FileExistsSimError(SimFSError):
    """Exclusive create of a path that already exists."""


class FileNotFoundSimError(SimFSError):
    """Open/stat/unlink of a path that does not exist."""


class NotADirectorySimError(SimFSError):
    """Path component used as a directory is not one."""


class InvalidOperationError(SimFSError):
    """Operation not valid for the handle's open mode or state."""


class BackendUsageError(ReproError, ValueError):
    """A storage-backend call or fault plan was given an invalid argument.

    A negative read size, rank or count, or a non-positive block size.
    Also a :class:`ValueError`, the type the standard file API raises for
    the same misuse, so callers written against either catch it.
    """


class FaultInjectedError(ReproError):
    """A :class:`~repro.backends.faults.FaultPlan` fired a scripted fault.

    Raised by :class:`~repro.backends.faults.FaultInjectingBackend` at the
    exact backend call a plan targets.  Deliberately a direct
    :class:`ReproError` subclass — it is neither a storage malfunction nor
    an API misuse, and tests must be able to tell a scripted fault from a
    real bug.  Carries only its message so it crosses process boundaries
    (the ``proc`` SPMD engine transports worker exceptions by pickle).
    """


# ---------------------------------------------------------------------------
# SION layer


class SionError(ReproError):
    """Base class for SION multifile errors."""


class SionFormatError(SionError):
    """File does not parse as a SION multifile (bad magic, truncation, ...)."""


class SionUsageError(SionError):
    """API misuse: wrong mode, closed handle, invalid parameter."""


class SionChunkOverflowError(SionUsageError):
    """A plain write exceeded the space remaining in the current chunk.

    Raised when the caller used the raw ANSI-style ``write`` without a
    preceding :func:`ensure_free_space`, mirroring the corruption that would
    occur in C.  Use ``sion_fwrite`` to split writes across chunks instead.
    This is API misuse, so it is a :class:`SionUsageError` on every writer.
    """


class SionMetadataLostError(SionError):
    """Metablock 2 is missing or corrupt; recovery may be possible."""
