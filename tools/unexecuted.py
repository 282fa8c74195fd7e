"""List every ``src/repro`` function a pytest run never entered.

Usage (from the repository root)::

    PYTHONPATH=src python tools/unexecuted.py [--out PATH] [--allowlist FILE] [PYTEST ARGS...]

When no pytest argument names a path, it runs tier-1 (``tests``) and
the figure benches (``benchmarks/bench_scenarios.py``: the ``full``
suite, which holds every ``smoke`` scenario, plus the ``ci-grid`` points
of the grid suites), so code only a benchmark reaches counts as entered.
Pass paths to narrow the run, e.g. ``tests/sion``.  Two run sets are
committed, each with its allowlist:

* the default targets, against ``tools/unexecuted.allow``: tier-1 and the
  benches enter every function but the one only the full grid runs;
* the surfaces, against ``tools/surface.allow``: the figure benches,
  ``perfbench/tests``, ``tests/docs`` (README, ``docs/`` blocks and the
  example scripts), ``tests/serve/test_cli_process.py``,
  ``tests/bench/test_runner_cli.py`` and ``tests/utils``.  A function
  none of them enters is reached only from its own tests, so it is
  deleted, reached from a doc block, or listed with its reason.

``--out`` and ``--allowlist`` may stand anywhere on the command line;
every other argument goes to pytest.
``--allowlist FILE`` compares the list with ``FILE`` after the run and
exits 1 if they differ, printing each extra and each stale entry.  A
line of the file is ``path qualname  # reason``, with no line number;
the reasons are a closed set — ``error path``, ``protocol``,
``documented API: <anchor>``, ``observation hook: <test id>`` and
``nightly full grid only`` (see ``tools/census.py``, which tier-1 tests
in ``tests/test_census.py``).

The script is a pytest plugin plus a report, stdlib only: importing this module
installs a function-entry profile hook (``sys.setprofile`` and
``threading.setprofile``), so everything imported afterwards — conftest
included — is observed, on the main thread and every thread the
``threads`` SPMD engine starts.  At session end every ``def`` under
``src/repro`` is matched against the entered code objects, and the
never-entered ones are written to ``--out`` (default
``unexecuted.txt``), one ``path:line qualname`` per line, and counted on
the terminal.

Skipped: abstract declarations (``@abstractmethod``) and functions whose
``def`` line carries ``# pragma: no cover``.

Children are followed.  ``multiprocessing`` re-arms the hook in every
child it forks (the ``proc`` SPMD engine's ranks under its default start
method).  A child *interpreter* — a script a test runs as a subprocess
(``tests/docs/test_examples.py`` runs the ``examples/``), a ``spawn`` or
``forkserver`` child — arms itself: the run exports ``REPRO_CENSUS_OUT``
(the absolute ``--out``) and puts a directory holding a small
``sitecustomize.py`` first on ``PYTHONPATH``, and that shim imports this
module, which installs the hook.  Each child writes the functions it
entered to ``--out`` with ``.pid<N>`` appended when it exits; the report
merges and deletes those files.

Blind spots: a child that dies by a signal or by ``os._exit`` outside
``multiprocessing`` writes nothing, and one started without ``site``
(``python -S`` / ``-I``) or with its own ``PYTHONPATH`` never arms, so
code reached only there is listed; a test that installs its own profile
hook (the open-work counters do, briefly) hides the calls made while it
is active.
"""

from __future__ import annotations

import ast
import atexit
import os
import shutil
import sys
import tempfile
import threading
from multiprocessing.util import Finalize, register_after_fork
from pathlib import Path

ROOT = Path(os.path.realpath(__file__)).parent.parent
SRC = ROOT / "src" / "repro"
#: What a run covers when no argument names a path.
DEFAULT_TARGETS = ("tests", "benchmarks/bench_scenarios.py")
#: Names ``--out`` (absolute) to every child interpreter of a run.
CENSUS_ENV = "REPRO_CENSUS_OUT"

#: The ``sitecustomize.py`` a run puts first on its children's
#: ``PYTHONPATH``: importing this module arms the hook.
_SHIM = """import os
import sys

if os.environ.get({env!r}):
    sys.path.insert(0, {tools!r})
    try:
        import unexecuted
    finally:
        sys.path.remove({tools!r})
    unexecuted.arm_child(os.environ[{env!r}])
"""

_entered: set = set()
#: A child interpreter's report target (set by :func:`arm_child`).
_child_report = None


def _hook(frame, event, arg) -> None:
    if event == "call":
        _entered.add(frame.f_code)


sys.setprofile(_hook)
threading.setprofile(_hook)


def _write_child_entries(out: Path) -> None:
    """Write this child's entered ``repro`` functions, one
    ``path<TAB>line<TAB>qualname`` per line (no file when there are none:
    a helper such as the resource tracker may exit after the report)."""
    rows = {
        (os.path.realpath(c.co_filename), c.co_firstlineno,
         getattr(c, "co_qualname", c.co_name))
        for c in list(_entered)
        if "repro" in c.co_filename
    }
    if not rows:
        return
    # Appended: a pid the system reused must not erase an earlier child's rows.
    with open(out.with_name(f"{out.name}.pid{os.getpid()}"), "a") as f:
        f.write("".join(f"{path}\t{line}\t{qual}\n" for path, line, qual in rows))


def _after_fork(report: "UnexecutedReport") -> None:
    """In a child ``multiprocessing`` forked: count afresh, and write
    the entries at exit (``Process._bootstrap`` runs the finalizers)."""
    _entered.clear()
    sys.setprofile(_hook)
    threading.setprofile(_hook)
    Finalize(None, _write_child_entries, args=(report.out,), exitpriority=-100)


def arm_child(out: str) -> None:
    """In a child interpreter the shim started (the hook is already on,
    since importing this module installed it): write the entries at exit,
    and follow the children it forks."""
    global _child_report
    _child_report = UnexecutedReport(Path(out))
    atexit.register(_write_child_entries, _child_report.out)
    register_after_fork(_child_report, _after_fork)


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

    sys.path.insert(0, str(ROOT / "tools"))
    import census

    sys.path.insert(0, str(ROOT))  # as ``python -m pytest`` would: tests/ imports
    opts, argv = census.split_options(argv, {"--out": "unexecuted.txt", "--allowlist": None})
    out = Path(opts["--out"]).resolve()
    if not any(Path(arg.split("::")[0]).exists() for arg in argv):
        argv = [*argv, *(str(ROOT / t) for t in DEFAULT_TARGETS)]
    report = UnexecutedReport(out)
    _merge_children(out)  # drop what an interrupted earlier run left
    register_after_fork(report, _after_fork)
    shim = Path(tempfile.mkdtemp(prefix="census-shim-"))
    (shim / "sitecustomize.py").write_text(_SHIM.format(env=CENSUS_ENV, tools=str(ROOT / "tools")))
    os.environ[CENSUS_ENV] = str(out)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(shim), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    try:
        status = pytest.main(argv, plugins=[report])
    finally:
        shutil.rmtree(shim)
    if opts["--allowlist"] is None:
        return status
    return census.check(report.missing, Path(opts["--allowlist"])) or status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
