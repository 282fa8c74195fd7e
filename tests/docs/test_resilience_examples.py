"""docs/RESILIENCE.md code blocks are executable documentation.

Every fenced ``python`` block in the resilience story must run as-is
(the listings are written against the simulated FS, so nothing touches
the real disk).  A block that is intentionally a fragment opts out by
placing an HTML comment containing ``readme-test: skip`` on one of the
three lines directly above its opening fence.  The README and
docs/FORMAT.md harnesses parse their blocks with :func:`python_blocks`.
"""

from __future__ import annotations

import pathlib

import pytest

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "RESILIENCE.md"
SKIP_MARK = "readme-test: skip"


def python_blocks(doc: pathlib.Path) -> list[tuple[int, str, bool]]:
    """``(first_line, source, skipped)`` for each fenced python block of ``doc``."""
    lines = doc.read_text(encoding="utf-8").splitlines()
    blocks = []
    i = 0
    while i < len(lines):
        if lines[i].strip() == "```python":
            skipped = any(
                SKIP_MARK in lines[j] for j in range(max(0, i - 3), i)
            )
            body = []
            i += 1
            first = i + 1  # 1-based line of the first statement
            while i < len(lines) and lines[i].strip() != "```":
                body.append(lines[i])
                i += 1
            blocks.append((first, "\n".join(body), skipped))
        i += 1
    return blocks


_BLOCKS = python_blocks(DOC)


def test_resilience_doc_has_runnable_examples():
    """The walkthroughs (kill-then-recover, lost-file) must stay runnable."""
    assert sum(1 for _, _, skipped in _BLOCKS if not skipped) >= 2


@pytest.mark.parametrize(
    "first_line,source,skipped",
    _BLOCKS,
    ids=[f"L{first}" for first, _, _ in _BLOCKS],
)
def test_resilience_block_executes(first_line, source, skipped):
    """Each non-fragment block compiles and runs without error."""
    code = compile(source, f"RESILIENCE.md:{first_line}", "exec")
    if skipped:
        return  # fragments must still be valid syntax, but are not run
    exec(code, {"__name__": "__resilience__"})
