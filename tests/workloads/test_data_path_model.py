"""One data-path model: every modelled bandwidth is ``parallel_io``.

:func:`repro.workloads.common.parallel_io` (the flow model) prices every
data transfer, and :mod:`repro.analysis.model` is its closed-form
reference (``tests/workloads/test_model_crossvalidation.py`` holds them
equal).  These rows pin the structure over ``src/repro``: the second
Lustre model, the placement seed that changed no number and the extra
lock-penalty dispatches are gone, and one method picks the lock
coefficient for an op.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


class _Defs(ast.NodeVisitor):
    """Every function of one module by qualified name, and the calls
    (by callee name) made directly in each."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.stack: list[str] = []
        self.defs: dict[str, ast.FunctionDef] = {}
        self.calls: list[tuple[str, str]] = []  # (caller, callee)

    def _scope(self, node, is_def: bool) -> None:
        self.stack.append(node.name)
        if is_def:
            self.defs[f"{self.module}:{'.'.join(self.stack)}"] = node
        self.generic_visit(node)
        self.stack.pop()

    def visit_ClassDef(self, node):
        self._scope(node, is_def=False)

    def visit_FunctionDef(self, node):
        self._scope(node, is_def=True)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        self.calls.append((f"{self.module}:{'.'.join(self.stack)}", name))
        self.generic_visit(node)


def _modules() -> list[_Defs]:
    out = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _Defs(path.relative_to(SRC).as_posix())
        visitor.visit(ast.parse(path.read_text()))
        out.append(visitor)
    return out


MODULES = _modules()
DEFS = {name: node for m in MODULES for name, node in m.defs.items()}


def _callers(callee: str) -> set[str]:
    return {caller for m in MODULES for caller, name in m.calls if name == callee}


@pytest.mark.parametrize(
    "name",
    [
        "expected_coverage",
        "aggregate_stripe_bandwidth",
        "alignment_speedup",
        "worst_case_sharers",
        "simulate_transfer_batch",
        "nfiles_grid",
    ],
)
def test_deleted_names_are_gone(name):
    pattern = re.compile(rf"\b{name}\b")
    assert [p.name for p in SRC.rglob("*.py") if pattern.search(p.read_text())] == []


def test_the_lock_model_has_no_bandwidth_helper():
    assert "fs/locks.py:LockContentionModel.effective_bandwidth" not in DEFS


@pytest.mark.parametrize(
    "function, knob",
    [
        ("workloads/common.py:parallel_io", "seed"),
        ("workloads/common.py:_file_resources", "seed"),
        ("fs/striping.py:assign_osts_roundrobin", "start"),
        ("workloads/bandwidth.py:sweep_nfiles", "seeds"),
        ("workloads/repartition.py:run_restart_analysis", "use_cache"),
    ],
)
def test_knobs_that_changed_no_number_are_gone(function, knob):
    args = DEFS[function].args
    assert knob not in [a.arg for a in args.args + args.kwonlyargs]


def test_the_placement_draws_no_random_offset():
    assert "random" not in (SRC / "workloads" / "common.py").read_text()


def test_only_penalty_picks_the_lock_coefficient():
    callers = _callers("write_penalty") | _callers("read_penalty")
    assert callers == {"fs/locks.py:LockContentionModel.penalty"}
    assert _callers("penalty") == {
        "workloads/common.py:parallel_io",
        "analysis/model.py:predict_alignment_factor",
    }


def test_table1_is_the_alignment_sweep_over_two_rows():
    in_alignment = {c for c in _callers("parallel_io") if c.startswith("workloads/alignment.py")}
    assert in_alignment == {"workloads/alignment.py:alignment_sweep"}
    assert "workloads/alignment.py:run_table1" in _callers("alignment_sweep")
