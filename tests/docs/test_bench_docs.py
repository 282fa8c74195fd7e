"""The benchmark docs cannot rot.

Every ``python -m repro.bench ...`` command quoted in the README, the
benchmarks README and the verify skill must parse with the real CLI
parser, and every ``benchmarks/baselines/*.json`` file they name must
exist — a deleted option, subcommand or baseline fails here, not in a
reader's terminal.
"""

from __future__ import annotations

import pathlib
import re
import shlex

from repro.bench.cli import _build_parser

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCS = [
    ROOT / "README.md",
    ROOT / "benchmarks" / "README.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]

_COMMAND = re.compile(r"python -m repro\.bench[ \t]+([^`\n]*)")
_BASELINE = re.compile(r"\bbaselines/([\w.]+\.json)")


def _commands() -> list[tuple[str, str]]:
    found = []
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8").replace("\\\n", " ")
        for match in _COMMAND.finditer(text):
            tail = match.group(1).split(" #")[0].strip()
            found.append((str(doc.relative_to(ROOT)), tail))
    return found


_COMMANDS = _commands()


def test_docs_quote_the_whole_pattern():
    """run, compare, record and list are each shown at least once."""
    verbs = {tail.split()[0] for _, tail in _COMMANDS}
    assert {"run", "compare", "record", "list"} <= verbs


def test_every_quoted_command_parses():
    # One test, not one per command: a doc edit must not rename tests.
    invalid = []
    for doc, tail in _COMMANDS:
        try:
            _build_parser().parse_args(shlex.split(tail))
        except SystemExit:
            invalid.append(f"{doc}: python -m repro.bench {tail}")
    assert invalid == []


def test_named_baselines_exist():
    named = {
        (str(doc.relative_to(ROOT)), name)
        for doc in DOCS
        for name in _BASELINE.findall(doc.read_text(encoding="utf-8"))
    }
    assert named, "the docs name no baseline at all"
    missing = sorted(
        (doc, name)
        for doc, name in named
        if not (ROOT / "benchmarks" / "baselines" / name).is_file()
    )
    assert missing == []
