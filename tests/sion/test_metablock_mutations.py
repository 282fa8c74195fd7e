"""Every metablock byte, mutated: a typed error or the written bytes, fast.

The damaged-set table (``test_damaged_sets.py``) names one shape per
finding; this sweep makes no guess about which bytes matter.  A four-task
set in two physical files is written once with shadow headers and once
with transparent compression.  For every byte of both metablocks of both
files the sweep truncates the file there and, separately, flips that byte
(XOR 0xFF).  Each strict surface — ``load_set().require_intact()``,
``verify_multifile(deep=True)`` and the serial global view's
``read_task`` of every rank — must then either succeed (the serial view
with the written payloads) or raise a :mod:`repro.errors` type, each
within one second.  A count field a mutation blows up must be bounded
before any array is sized by it: a builtin ``MemoryError`` or a
multi-second mapping build fails here.

The multi-byte variant draws several flips and an optional truncation of
one file with hypothesis; CI's nightly run repeats it with a fresh seed.
"""

from __future__ import annotations

import functools
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.simfs_backend import SimBackend
from repro.errors import ReproError
from repro.fs.simfs import SimFS
from repro.simmpi import run_spmd
from repro.sion import Metablock1, paropen, serial
from repro.sion.loader import load_set
from repro.sion.mapping import physical_path
from repro.utils.verify import verify_multifile
from tests.conftest import TEST_BLKSIZE

NTASKS = 4
PATH = "/d/a.sion"
FILES = [physical_path(PATH, n) for n in range(2)]
OPTIONS = {"shadow": {"shadow": True}, "compress": {"compress": True}}
SECONDS = 1.0


def _payload(rank: int) -> bytes:
    return b"A" * (100 + 37 * rank) + bytes([rank])


def _write(comm, backend, options):
    f = paropen(PATH, "w", comm, chunksize=300, nfiles=2, backend=backend, **options)
    f.fwrite(_payload(comm.rank))
    f.parclose()


@functools.lru_cache(maxsize=None)
def _written(kind: str) -> dict[str, tuple[bytes, tuple[int, ...]]]:
    """Per physical file: its written bytes and its metablock byte offsets."""
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    backend = SimBackend(fs)
    run_spmd(NTASKS, _write, backend, OPTIONS[kind], engine="bulk")
    out = {}
    for fpath in FILES:
        with backend.open(fpath, "rb") as f:
            data = f.pread(0, backend.file_size(fpath))
            mb1 = Metablock1.decode_from(f)
        spans = (*range(mb1.encoded_size), *range(mb1.metablock2_offset, len(data)))
        out[fpath] = (data, spans)
    return out


def _backend(kind: str, damaged: str, data: bytes) -> SimBackend:
    """A fresh store holding the set ``kind`` with ``damaged`` replaced by ``data``."""
    fs = SimFS(blocksize_override=TEST_BLKSIZE)
    backend = SimBackend(fs)
    for fpath, (written, _) in _written(kind).items():
        with backend.open(fpath, "wb") as f:
            f.pwrite(0, data if fpath == damaged else written)
    return backend


def _read_every_task(backend):
    with serial.open(PATH, "r", backend=backend) as sf:
        assert [sf.read_task(r) for r in range(NTASKS)] == [_payload(r) for r in range(NTASKS)]


SURFACES = {
    "load_set": lambda backend: load_set(backend, PATH).require_intact().close(),
    "sionverify": lambda backend: verify_multifile(PATH, backend=backend, deep=True),
    "serial": _read_every_task,
}


def _check(backend, what: str) -> None:
    for name, surface in SURFACES.items():
        start = time.perf_counter()
        try:
            surface(backend)
        except ReproError:
            pass
        elapsed = time.perf_counter() - start
        assert elapsed < SECONDS, f"{what}: {name} took {elapsed:.2f} s"


def _flip(data: bytes, offset: int, mask: int = 0xFF) -> bytes:
    return data[:offset] + bytes([data[offset] ^ mask]) + data[offset + 1 :]


@pytest.mark.parametrize("damaged", [0, 1], ids=["file0", "file1"])
@pytest.mark.parametrize("kind", OPTIONS)
def test_every_metablock_byte_truncated_or_flipped(kind, damaged):
    fpath = FILES[damaged]
    data, spans = _written(kind)[fpath]
    for offset in spans:
        _check(_backend(kind, fpath, data[:offset]), f"{fpath} truncated at {offset}")
        _check(_backend(kind, fpath, _flip(data, offset)), f"{fpath} byte {offset} flipped")


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(OPTIONS)),
    damaged=st.sampled_from(FILES),
    picks=st.lists(
        st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), min_size=2, max_size=6
    ),
    cut=st.none() | st.integers(0, 1 << 16),
)
def test_several_metablock_bytes_mutated(kind, damaged, picks, cut):
    data, spans = _written(kind)[damaged]
    for pick, mask in picks:
        data = _flip(data, spans[pick % len(spans)], mask)
    if cut is not None:
        data = data[: spans[cut % len(spans)]]
    _check(_backend(kind, damaged, data), f"{damaged}: flips {picks}, cut {cut}")
