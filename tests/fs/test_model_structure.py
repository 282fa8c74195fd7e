"""Structure: the paper's two costs are two loops, and nothing else prices them.

Directory metadata is :func:`repro.fs.metadata.fifo_finish_times` and
shared bandwidth is :func:`repro.fs.flows.finish_times`.  Every workload
feeds its work at t=0, so there is no event engine, no online flow
scheduler and no event-driven metadata service.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import repro
from repro.bench.scenarios import naive_metadata_time
from repro.fs import flows, interference, metadata
from repro.fs.systems import jaguar, jugene
from repro.workloads.common import parallel_io
from repro.workloads.filecreate import tasklocal_metadata_time

SRC = Path(repro.__file__).parent
# ``Event`` is also the Scalasca trace record (``apps/scalasca/events.py``),
# so it is looked for under ``repro.fs`` alone.
DELETED = {
    "Engine", "FlowScheduler", "FifoMetadataService",
    "DegradingMetadataService", "MetadataOp", "Flow",
}
MODEL_MODULES = (flows, metadata, interference)


def test_the_event_engine_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.fs.events")
    defined = set()
    for path in SRC.rglob("*.py"):
        gone = DELETED | {"Event"} if path.parent.name == "fs" else DELETED
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in gone:
                defined.add(f"{path.relative_to(SRC)}:{node.name}")
    assert not defined
    for module in MODEL_MODULES:
        assert not (DELETED | {"Event"}) & set(vars(module)), module.__name__


def _model_functions_entered(fn, *args):
    """The functions of the three model modules that ``fn(*args)`` enters."""
    files = {m.__file__ for m in MODEL_MODULES}
    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            seen.add(frame.f_code.co_name)

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(old)
    return seen - {"<genexpr>", "<listcomp>", "base_time", "__init__", "_normalize"}


@pytest.mark.parametrize(
    "fn, args, loop",
    [
        (parallel_io, (jugene(), 64, 1e9, "write", 4), {"finish_times", "_max_min_rates"}),
        (parallel_io, (jaguar(), 64, 1e9, "read", 8), {"finish_times", "_max_min_rates"}),
        (tasklocal_metadata_time, (jugene(), 64, "create"), {"fifo_finish_times"}),
        (tasklocal_metadata_time, (jaguar(), 64, "open"), {"fifo_finish_times"}),
        (naive_metadata_time, (64,), {"fifo_finish_times"}),
        (interference.bystander_latency, (jugene().metadata_costs, 64),
         {"bystander_latency", "fifo_finish_times"}),
    ],
    ids=["parallel_io-gpfs", "parallel_io-lustre", "create", "open", "naive", "bystander"],
)
def test_each_cost_reaches_exactly_one_loop(fn, args, loop):
    assert _model_functions_entered(fn, *args) == loop
