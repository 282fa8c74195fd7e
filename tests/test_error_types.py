"""Every error the library raises on purpose is a ``repro.errors`` type.

An AST scan of every module under ``src/repro``: each ``raise``
names a class of :mod:`repro.errors`, or calls a function whose return
annotation is one (the engines' shared failure policies), or is one of
the few raises a Python protocol or a benchmark's in-scenario check
dictates, listed below with its reason.  A bare ``raise`` (re-raise) is
always allowed.
"""

from __future__ import annotations

import ast
import pathlib

import repro.errors

SRC = pathlib.Path(repro.errors.__file__).resolve().parent

ERRORS = {
    name
    for name, value in vars(repro.errors).items()
    if isinstance(value, type) and issubclass(value, repro.errors.ReproError)
}

#: (module, raised name) -> why it is not a ``repro.errors`` type.
ALLOWED = {
    ("backends/localfs.py", "TypeError"): "pickle protocol: an unpicklable handle",
    ("backends/simfs_backend.py", "TypeError"): "pickle protocol: an in-process store",
    ("sion/readwrite.py", "AttributeError"): "__getattr__ protocol: no such attribute",
    ("simmpi/bulk.py", "_Suspend"): "bulk-engine control flow, caught by its scheduler",
    ("utils/cli.py", "SystemExit"): "a command-line tool's exit status",
    ("utils/__main__.py", "SystemExit"): "a command-line tool's exit status",
    **{
        (f"bench/{module}.py", "AssertionError"): "a benchmark scenario's in-scenario check"
        for module in (
            "collective", "core_io", "resilience", "scaffold", "scale", "scenarios",
            "serve",
        )
    },
}


def _raised_name(node: ast.Raise) -> str:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _error_factories() -> set[str]:
    """Functions whose return annotation names a ``repro.errors`` type."""
    return {
        node.name
        for _, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.returns is not None
        and ast.unparse(node.returns).strip("'\"") in ERRORS
    }


def test_every_raise_names_a_repro_error():
    typed = ERRORS | _error_factories()
    untyped = [
        f"{module}:{node.lineno} raises {_raised_name(node)}"
        for module, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and _raised_name(node) not in typed
        and (module, _raised_name(node)) not in ALLOWED
    ]
    assert untyped == []


def test_the_allowed_raises_still_exist():
    found = {
        (module, _raised_name(node))
        for module, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    assert set(ALLOWED) <= found


def test_backend_misuse_is_typed_and_still_a_value_error():
    assert issubclass(repro.errors.BackendUsageError, repro.errors.ReproError)
    assert issubclass(repro.errors.BackendUsageError, ValueError)


def test_model_errors_are_typed_and_keep_their_builtin_base():
    assert issubclass(repro.errors.ModelUsageError, repro.errors.ReproError)
    assert issubclass(repro.errors.ModelUsageError, ValueError)
    assert issubclass(repro.errors.ModelFailureError, repro.errors.ReproError)
    assert issubclass(repro.errors.ModelFailureError, RuntimeError)
