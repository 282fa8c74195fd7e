"""One open set: the serial global view and the gateway's container are one
object over one ``ReadPlan``, and every serial slice read is one cursor.

``repro.sion.serial.SealedSet`` is a sealed set's ``ReadPlan`` plus one
read handle per physical file.  ``SionSerialFile`` adds the Listing 5
cursor to it, the gateway's ``ContainerHandle`` a generation, identity
tokens and ranged reads.  Part (i) checks the object's behaviour: range
checks, slices that equal their streams, an idempotent close, and a
container that several threads read at once without a shared cursor.  Part
(ii) pins the structure: who subclasses it, who builds a ``TaskStream``,
and which parallel implementations are gone.
"""

import ast
import pathlib
import random
import sys
import threading
import time

import pytest

from repro.backends.simfs_backend import SimBackend
from repro.errors import SionUsageError
from repro.fs.simfs import SimFS
from repro.serve.gateway import ContainerHandle, ReadGateway
from repro.simmpi import run_spmd
from repro.sion import PartitionStream, paropen, serial
from repro.sion.serial import SealedSet, SionSerialFile

NWRITERS = 7
SIZES = (1500, 0, 700, 1300, 90, 2200, 333)


def _payloads():
    rng = random.Random(33)
    return [rng.randbytes(n) for n in SIZES]


def _sealed(compress=False, nfiles=3):
    backend = SimBackend(SimFS(blocksize_override=512))
    payloads = _payloads()

    def task(comm):
        f = paropen(
            "/o.sion", "w", comm, chunksize=200, nfiles=nfiles, mapping="roundrobin",
            compress=compress, backend=backend,
        )
        f.fwrite(payloads[comm.rank])
        f.parclose()

    run_spmd(NWRITERS, task)
    return backend


# --------------------------------------------------------------------------
# (i) Behaviour.


@pytest.mark.parametrize("compress", [False, True])
def test_a_slice_is_its_streams_concatenated(compress):
    backend = _sealed(compress)
    payloads = _payloads()
    with serial.open("/o.sion", "r", backend=backend) as sf:
        for writers in ([], [3], [1, 2, 3], range(NWRITERS), [5, 0]):
            cursor = sf.slice(writers)
            assert isinstance(cursor, PartitionStream)
            pieces = []
            while piece := cursor.fread(250):
                pieces.append(piece)
            assert b"".join(pieces) == b"".join(payloads[w] for w in writers)
            assert cursor.feof()
            cursor.close()  # the slice owns no handle: the set stays open
        assert sf.read_task(6) == payloads[6]


def test_streams_are_range_checked_and_close_is_idempotent():
    backend = _sealed()
    sf = serial.open("/o.sion", "r", backend=backend)
    for bad in (-1, NWRITERS):
        with pytest.raises(SionUsageError, match="out of range"):
            sf.stream(bad)
        with pytest.raises(SionUsageError, match="out of range"):
            sf.slice([0, bad])
    assert (sf.ntasks, sf.nfiles, sf.compressed) == (NWRITERS, 3, False)
    sf.close()
    sf.close()
    with pytest.raises(SionUsageError, match="closed"):
        sf.stream(0)


def test_the_serial_view_and_the_container_share_one_plan_shape():
    backend = _sealed()
    gw = ReadGateway(backend=backend)
    try:
        container = gw.open_container("/o.sion")
        with serial.open("/o.sion", "r", backend=backend) as sf:
            assert sf.plan == container.plan
            for w in range(NWRITERS):
                assert sf.read_task(w) == container.read_task(w) == _payloads()[w]
    finally:
        gw.close()


def test_one_container_serves_concurrent_threads_without_a_shared_cursor():
    """``read_task`` on one stream and ``read_range`` on another, at once,
    by more threads than cores, switching as often as the interpreter can."""
    backend = _sealed()
    payloads = _payloads()
    gw = ReadGateway(backend=backend, cache_bytes=1 << 16, cache_block=512)
    container = gw.open_container("/o.sion")
    errors, rounds = [], []
    start = threading.Barrier(4)
    seconds = 1.5  # every thread reads for as long as the others do

    def whole(rank):
        start.wait()
        n, stop = 0, time.monotonic() + seconds
        while time.monotonic() < stop:
            if container.read_task(rank) != payloads[rank]:
                errors.append(("read_task", rank))
            n += 1
        rounds.append(n)

    def ranged(rank):
        rng = random.Random(rank)
        data = payloads[rank]
        start.wait()
        n, stop = 0, time.monotonic() + seconds
        while time.monotonic() < stop:
            offset, size = rng.randrange(len(data)), rng.randrange(1, 700)
            if container.read_range(rank, offset, size) != data[offset : offset + size]:
                errors.append(("read_range", rank, offset, size))
            n += 1
        rounds.append(n)

    threads = [
        threading.Thread(target=fn, args=(rank,))
        for fn, rank in ((whole, 5), (ranged, 3), (whole, 2), (ranged, 6))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        gw.close()
    assert not any(t.is_alive() for t in threads)
    assert len(rounds) == 4 and min(rounds) > 100
    assert errors == []


# --------------------------------------------------------------------------
# (ii) Structure.

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.mark.parametrize("cls", [SionSerialFile, ContainerHandle])
def test_both_open_sets_are_the_one_class(cls):
    assert issubclass(cls, SealedSet)
    assert [n for n in ("stream", "close", "ntasks", "nfiles") if n in vars(cls)] == []


def _constructions(name):
    """``(file, enclosing def)`` of every call of ``name(`` under ``src``."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                inner = where
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{where}.{child.name}" if where else child.name
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == name
                ):
                    sites.append((path.relative_to(SRC).as_posix(), where))
                visit(child, inner)

        visit(tree, "")
    return sites


def test_task_streams_are_built_by_the_plan_and_the_task_local_view_alone():
    assert sorted(_constructions("TaskStream")) == [
        ("sion/openspec.py", "ReadPlan.stream"),
        ("sion/serial.py", "open_rank"),
    ]


def _imported_names(path):
    tree = ast.parse(path.read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_the_slice_readers_keep_no_parallel_logic():
    assert "FileLoad" not in _imported_names(SRC / "sion" / "serial.py")
    cat = ast.parse((SRC / "utils" / "cat.py").read_text())
    assert not [
        n for n in ast.walk(cat)
        if isinstance(n, (ast.Name, ast.Attribute))
        and "compress" in (n.id if isinstance(n, ast.Name) else n.attr)
    ]
    assert [f for f, _ in _constructions("divmod") if f == "apps/mp2c/checkpoint.py"] == []


@pytest.mark.parametrize(
    "module, owner, name",
    [
        ("serve/server.py", "GatewayServer", "serve_forever"),
        ("fs/cache.py", "ChunkCache", "clear"),
        ("fs/cache.py", "ChunkCache", "used_bytes"),
        ("sion/hybrid.py", "HybridParallelFile", "nthreads"),
        ("sion/text.py", None, "_WritableStream"),
        ("sion/text.py", None, "_ReadableStream"),
    ],
)
def test_never_entered_names_are_gone(module, owner, name):
    tree = ast.parse((SRC / module).read_text())
    scopes = [tree] if owner is None else [
        n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == owner
    ]
    assert scopes, owner
    defined = {
        n.name
        for scope in scopes
        for n in ast.iter_child_nodes(scope)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert name not in defined
