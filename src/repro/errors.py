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


class FileNotFoundSimError(SimFSError):
    """Open/stat/unlink of a path that does not exist."""


class InvalidOperationError(SimFSError):
    """Operation not valid for the handle's open mode or state."""


class BackendUsageError(ReproError, ValueError):
    """A storage-backend call or fault plan was given an invalid argument.

    A negative read size, rank or count, or a non-positive block size.
    Also a :class:`ValueError`, the type the standard file API raises for
    the same misuse, so callers written against either catch it.
    """


class ModelUsageError(ReproError, ValueError):
    """A file-system model or workload generator was given an invalid parameter.

    A negative size, rate or count, an unknown op kind or machine name.
    Also a :class:`ValueError`, as :class:`BackendUsageError` is, so
    callers written against the plain type catch it.
    """


class ModelFailureError(ReproError, RuntimeError):
    """A model could not produce its result from valid input.

    A flow solver that stalls or fails to converge, or a library trace
    that lost part of what it recorded.  Also a :class:`RuntimeError`.
    """


class FaultInjectedError(ReproError):
    """A rank reached the call a journal was told to fail.

    Raised by :class:`~repro.backends.journal.Journal` built with
    ``fail_at=(rank, call)``, at that rank's call before it reaches the
    store, and at every later call of the rank.  Deliberately a direct
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
