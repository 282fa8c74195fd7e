"""docs/FORMAT.md code blocks are executable documentation.

The format spec's listings decode a written set by hand against the
simulated FS; every fenced ``python`` block must run as written (parsed
by the RESILIENCE harness, whose ``readme-test: skip`` mark applies).
"""

from __future__ import annotations

import pathlib

import pytest

from tests.docs.test_resilience_examples import python_blocks

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "FORMAT.md"
_BLOCKS = python_blocks(DOC)


def test_format_doc_runs_the_alignment_rule_and_the_hand_decode():
    sources = [source for _, source, skipped in _BLOCKS if not skipped]
    assert len(sources) >= 3
    assert any("expected_geometry(4096, 4096, 4096) == (69632, 16846848)" in s for s in sources)


@pytest.mark.parametrize(
    "first_line,source,skipped",
    _BLOCKS,
    ids=[f"L{first}" for first, _, _ in _BLOCKS],
)
def test_format_block_executes(first_line, source, skipped):
    """Each non-fragment block compiles and runs without error."""
    code = compile(source, f"FORMAT.md:{first_line}", "exec")
    if skipped:
        return  # fragments must still be valid syntax, but are not run
    exec(code, {"__name__": "__format__"})
