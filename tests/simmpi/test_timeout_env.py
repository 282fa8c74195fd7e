"""REPRO_SPMD_TIMEOUT: environment-configurable collective timeout."""

import pytest

from repro.errors import SimMPIError, SpmdWorkerError
from repro.simmpi import run_spmd
from repro.simmpi.runner import DEFAULT_TIMEOUT, resolve_timeout


class TestResolveTimeout:
    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPMD_TIMEOUT", raising=False)
        assert resolve_timeout() == DEFAULT_TIMEOUT

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "4500")
        assert resolve_timeout() == 4500.0

    def test_env_read_at_call_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "7")
        assert resolve_timeout() == 7.0
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "8")
        assert resolve_timeout() == 8.0

    def test_zero_or_negative_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "0")
        assert resolve_timeout() is None
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "-1")
        assert resolve_timeout() is None

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "  ")
        assert resolve_timeout() == DEFAULT_TIMEOUT

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "soon")
        with pytest.raises(SimMPIError, match="REPRO_SPMD_TIMEOUT"):
            resolve_timeout()

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "4500")
        assert resolve_timeout(3.0) == 3.0
        assert resolve_timeout(None) is None


@pytest.mark.parametrize("engine", ["threads", "bulk"])
def test_env_timeout_applies_to_run_spmd(monkeypatch, engine):
    monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "0.3")

    def fn(c):
        if c.rank == 0:
            c.bcast(None, root=1)  # rank 1 never joins it
        else:
            import time

            # Keep the bulk worklist from declaring an instant deadlock:
            # the point here is the timeout path.
            time.sleep(0.6)
            c.barrier()
        return "x"

    with pytest.raises(SpmdWorkerError):
        run_spmd(2, fn, engine=engine)
