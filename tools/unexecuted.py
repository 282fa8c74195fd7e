"""List every ``src/repro`` function a pytest run never entered.

Usage (from the repository root)::

    PYTHONPATH=src python tools/unexecuted.py [--out PATH] [PYTEST ARGS...]

With no pytest arguments it runs the tier-1 suite (``testpaths``).  The
script is a pytest plugin plus a report, stdlib only: importing this
module installs a function-entry profile hook (``sys.setprofile`` and
``threading.setprofile``), so everything imported afterwards — conftest
included — is observed, on the main thread and every thread the
``threads`` SPMD engine starts.  At session end every ``def`` under
``src/repro`` is matched against the entered code objects, and the
never-entered ones are written to ``--out`` (default
``unexecuted.txt``), one ``path:line qualname`` per line, and counted on
the terminal.

Skipped: abstract declarations (``@abstractmethod``) and functions whose
``def`` line carries ``# pragma: no cover``.

Blind spots: ranks of the ``proc`` SPMD engine run in child processes
whose entries are not reported back, so code reached only there is
listed; a test that installs its own profile hook (the open-work
counters do, briefly) hides the calls made while it is active.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(os.path.realpath(__file__)).parent.parent
SRC = ROOT / "src" / "repro"

_entered: set = set()


def _hook(frame, event, arg) -> None:
    if event == "call":
        _entered.add(frame.f_code)


sys.setprofile(_hook)
threading.setprofile(_hook)


def _is_abstract(node: ast.AST) -> bool:
    for deco in node.decorator_list:
        name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", "")
        if name == "abstractmethod":
            return True
    return False


def _defs(path: Path):
    """``(first line, qualname)`` of every function defined in ``path``."""
    source = path.read_text()
    lines = source.splitlines()
    out = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                pragma = "pragma: no cover" in lines[child.lineno - 1]
                if not _is_abstract(child) and not pragma:
                    # A decorated function's code starts at its first decorator.
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((first, qual))
                walk(child, f"{qual}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(source, str(path)), "")
    return out


def never_entered() -> list[str]:
    """``path:line qualname`` of every ``src/repro`` function not entered."""
    seen = {
        (os.path.realpath(c.co_filename), c.co_firstlineno)
        for c in list(_entered)
        if "repro" in c.co_filename
    }
    missing = []
    for path in sorted(SRC.rglob("*.py")):
        for line, qual in _defs(path):
            if (str(path), line) not in seen:
                missing.append(f"{path.relative_to(ROOT)}:{line} {qual}")
    return missing


class UnexecutedReport:
    """The pytest plugin: writes the report when the session ends."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.missing: list[str] = []

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        self.missing = never_entered()
        self.out.write_text("".join(f"{m}\n" for m in self.missing))

    def pytest_terminal_summary(self, terminalreporter) -> None:
        terminalreporter.write_line(
            f"unexecuted: {len(self.missing)} src/repro functions never entered "
            f"(listed in {self.out})"
        )


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT))  # as ``python -m pytest`` would: tests/ imports
    out = Path("unexecuted.txt")
    if argv[:1] == ["--out"]:
        out, argv = Path(argv[1]), argv[2:]
    return pytest.main(argv, plugins=[UnexecutedReport(out)])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
