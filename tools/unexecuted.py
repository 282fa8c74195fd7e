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

Forked children are followed: ``multiprocessing`` re-arms the hook in
every child it forks (the ``proc`` SPMD engine's ranks under its default
start method), and each child writes the functions it entered to
``--out`` with ``.pid<N>`` appended when it exits; the report merges and
deletes those files.

Blind spots: children started with ``spawn`` or ``forkserver`` run a
fresh interpreter without the hook, and a child that dies by
``os._exit`` writes nothing, so code reached only there is listed; a
test that installs its own profile hook (the open-work counters do,
briefly) hides the calls made while it is active.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from multiprocessing.util import Finalize, register_after_fork
from pathlib import Path

ROOT = Path(os.path.realpath(__file__)).parent.parent
SRC = ROOT / "src" / "repro"

_entered: set = set()


def _hook(frame, event, arg) -> None:
    if event == "call":
        _entered.add(frame.f_code)


sys.setprofile(_hook)
threading.setprofile(_hook)


def _write_child_entries(out: Path) -> None:
    """Write this child's entered ``repro`` functions, one
    ``path<TAB>line<TAB>qualname`` per line."""
    rows = {
        (os.path.realpath(c.co_filename), c.co_firstlineno,
         getattr(c, "co_qualname", c.co_name))
        for c in list(_entered)
        if "repro" in c.co_filename
    }
    out.with_name(f"{out.name}.pid{os.getpid()}").write_text(
        "".join(f"{path}\t{line}\t{qual}\n" for path, line, qual in rows)
    )


def _after_fork(report: "UnexecutedReport") -> None:
    """In a child ``multiprocessing`` forked: count afresh, and write
    the entries at exit (``Process._bootstrap`` runs the finalizers)."""
    _entered.clear()
    sys.setprofile(_hook)
    threading.setprofile(_hook)
    Finalize(None, _write_child_entries, args=(report.out,), exitpriority=-100)


def _merge_children(out: Path) -> set[tuple[str, int]]:
    """``(path, line)`` of every entry the children wrote; deletes their files."""
    seen = set()
    for child in out.parent.glob(f"{out.name}.pid*"):
        for row in child.read_text().splitlines():
            path, line, _ = row.split("\t", 2)
            seen.add((path, int(line)))
        child.unlink()
    return seen


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


def never_entered(children: set[tuple[str, int]]) -> list[str]:
    """``path:line qualname`` of every ``src/repro`` function entered
    neither here nor in ``children`` (``(path, line)`` pairs)."""
    seen = {
        (os.path.realpath(c.co_filename), c.co_firstlineno)
        for c in list(_entered)
        if "repro" in c.co_filename
    } | children
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
        self.missing = never_entered(_merge_children(self.out))
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
    report = UnexecutedReport(out)
    _merge_children(out)  # drop what an interrupted earlier run left
    register_after_fork(report, _after_fork)
    return pytest.main(argv, plugins=[report])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
