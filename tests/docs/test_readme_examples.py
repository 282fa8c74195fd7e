"""README code blocks are executable documentation.

Every fenced ``python`` block in README.md must run as-is (the listings
are written against the simulated FS, so nothing touches the real disk).
A block that is intentionally a fragment opts out by placing an HTML
comment containing ``readme-test: skip`` on one of the three lines
directly above its opening fence.
"""

from __future__ import annotations

import pathlib

import pytest

from tests.docs.test_resilience_examples import python_blocks

README = pathlib.Path(__file__).resolve().parents[2] / "README.md"
_BLOCKS = python_blocks(README)


def test_readme_has_runnable_examples():
    """The README keeps at least two executable listings."""
    assert sum(1 for _, _, skipped in _BLOCKS if not skipped) >= 2


@pytest.mark.parametrize(
    "first_line,source,skipped",
    _BLOCKS,
    ids=[f"L{first}" for first, _, _ in _BLOCKS],
)
def test_readme_block_executes(first_line, source, skipped):
    """Each non-fragment block compiles and runs without error."""
    code = compile(source, f"README.md:{first_line}", "exec")
    if skipped:
        return  # fragments must still be valid syntax, but are not run
    exec(code, {"__name__": "__readme__"})
