"""Run the executable examples embedded in the library's docstrings."""

import doctest

import pytest

import repro.fs.flows

MODULES_WITH_DOCTESTS = [
    repro.fs.flows,
]


@pytest.mark.parametrize(
    "module", MODULES_WITH_DOCTESTS, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    failures, tried = doctest.testmod(module).failed, doctest.testmod(module).attempted
    assert tried > 0, f"{module.__name__} was expected to carry doctests"
    assert failures == 0


def test_cli_module_dispatch(tmp_path, capsys):
    """python -m repro.utils routes to the right tool."""
    from repro.backends.localfs import LocalBackend
    from repro.sion import paropen
    from repro.simmpi import run_spmd
    from repro.utils.__main__ import main

    backend = LocalBackend(blocksize_override=512)
    path = str(tmp_path / "m.sion")

    def task(comm):
        f = paropen(path, "w", comm, chunksize=512, backend=backend)
        f.fwrite(b"dispatch")
        f.parclose()

    run_spmd(2, task)
    # NOTE: the dispatched dump uses the real statvfs blocksize for display
    # only; the stored metadata governs.
    assert main(["dump", path]) == 0
    out = capsys.readouterr().out
    assert "tasks:       2" in out
    assert main(["verify", path]) == 0
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert main(["not-a-tool"]) == 2
