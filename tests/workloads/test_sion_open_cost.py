"""The one SION open cost is priced from what the library does.

:func:`~repro.workloads.filecreate.sion_open_trace` runs a real
``paropen`` → ``parclose``; these rows pin that the trace is what an
instrumented run of the same cycle observes, that a change to the
library moves the figures, and that no other module restates the cost.
"""

from __future__ import annotations

import ast
import inspect
import pathlib

import pytest

import repro
from repro.backends.instrument import CountingBackend
from repro.backends.simfs_backend import SimBackend
from repro.fs.simfs import SimFS
from repro.fs.systems import jugene
from repro.simmpi import run_spmd
from repro.sion import paropen
from repro.sion.parallel import SionParallelFile
from repro.workloads import filecreate
from repro.workloads.filecreate import sion_open_time, sion_open_trace

SRC = pathlib.Path(repro.__file__).resolve().parent


@pytest.mark.parametrize(
    "ntasks,nfiles,mode",
    [(1, 1, "w"), (5, 1, "w"), (7, 3, "w"), (16, 16, "w"), (6, 1, "r"), (9, 4, "r")],
)
def test_trace_is_what_an_instrumented_cycle_observes(ntasks, nfiles, mode):
    fs = SimFS()
    backend = CountingBackend(SimBackend(fs))

    def cycle(comm, mode):
        geometry = {"chunksize": 1, "nfiles": nfiles} if mode == "w" else {}
        paropen("/set.sion", mode, comm, backend=backend, **geometry).parclose()

    if mode == "r":
        run_spmd(ntasks, cycle, "w", engine="bulk")
    counts, io = dict(fs.op_counts), backend.snapshot()
    stats: dict = {}
    run_spmd(ntasks, cycle, mode, engine="bulk", engine_stats=stats)
    io_after = backend.snapshot()

    trace = sion_open_trace(ntasks, nfiles, mode)
    assert trace.files == nfiles == len(fs._files)
    for key, got in (
        ("create", trace.creates),
        ("open", trace.opens),
        ("write_bytes", trace.write_bytes),
        ("read_bytes", trace.read_bytes),
    ):
        assert got == fs.op_counts.get(key, 0) - counts.get(key, 0), key
    assert trace.creates + trace.opens == io_after["opens"] - io["opens"]
    assert trace.write_bytes == io_after["bytes_written"] - io["bytes_written"]
    assert trace.read_bytes == io_after["bytes_read"] - io["bytes_read"]
    assert stats["waves_dropped"] == 0
    assert trace.waves == tuple(sorted((size, kind) for size, kind, _, _ in stats["waves"]))


def test_a_world_barrier_in_parclose_raises_the_fig3_cost(monkeypatch):
    """Fig. 3 follows the library: one more wave in the close costs more."""
    before = sion_open_time(jugene(), 4096)
    parclose = SionParallelFile.parclose

    def parclose_with_barrier(self):
        parclose(self)
        self.comm.barrier()

    monkeypatch.setattr(SionParallelFile, "parclose", parclose_with_barrier)
    sion_open_trace.cache_clear()
    try:
        after = sion_open_time(jugene(), 4096)
    finally:
        sion_open_trace.cache_clear()
    assert after > before


def test_only_the_pricing_function_restates_the_open_cost():
    src = inspect.getsource(filecreate)
    tree = ast.parse(src)
    # No per-op time constant: every priced op comes from the trace.
    constants = [
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
    ]
    assert constants == []

    params = inspect.signature(SimFS).parameters
    assert "profile" not in params and "serial_bw_mb_s" not in params
    assert not hasattr(SimFS(), "clock")

    readers = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        _find_readers(ast.parse(path.read_text()), module, "<module>", readers)
    assert readers == {("workloads/filecreate.py", "open_trace_time")}


def _find_readers(node: ast.AST, module: str, scope: str, out: set) -> None:
    """Add ``(module, function)`` for every read of the open-cost constants."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if isinstance(node, ast.Attribute) and node.attr in (
        "shared_open_time",
        "collective_latency",
    ):
        out.add((module, scope))
    for child in ast.iter_child_nodes(node):
        _find_readers(child, module, scope, out)
