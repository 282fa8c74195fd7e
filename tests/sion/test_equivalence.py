"""Property suite: bytes on disk are identical across every write path.

For random payload/chunk/buffer-size combinations, the physical multifile
must be byte-for-byte identical whether the payload went down as one
``fwrite``, as arbitrary ``fwrite`` pieces, as chunk-fitting ANSI
``write``s guarded by ``ensure_free_space``, or through the
:class:`CoalescingWriter` — and regardless of the payload's input type
(``bytes``, ``bytearray``, ``memoryview``, NumPy array).  The compressed
path cannot be compared physically, so it must round-trip the identical
logical stream.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.backends.simfs_backend import SimBackend
from repro.fs.simfs import SimFS
from repro.simmpi.comm import make_world
from repro.sion import paropen, serial
from repro.sion.buffering import CoalescingWriter

BLK = 512


def _backend():
    return SimBackend(SimFS(blocksize_override=BLK))


def _disk_bytes(backend, path="/m.sion"):
    with backend.open(path, "rb") as f:
        return f.pread(0, backend.file_size(path))


def _write_multifile(variant, payload, chunksize, buffer_size, pieces):
    """Write ``payload`` via one code path; returns the physical bytes."""
    backend = _backend()
    with serial.open(
        "/m.sion", "w", chunksizes=[chunksize], fsblksize=BLK, backend=backend
    ) as f:
        f.seek(0, 0, 0)
        if variant == "fwrite-whole":
            f.fwrite(payload)
        elif variant == "fwrite-pieces":
            done = 0
            view = memoryview(payload)
            for cut in pieces:
                f.fwrite(view[done : done + cut])
                done += cut
            f.fwrite(view[done:])
        elif variant == "ansi-write":
            # Chunk-fitting pieces written the Listing-1 way: this mirrors
            # fwrite's placement exactly, so physical bytes must match.
            view = memoryview(payload)
            done = 0
            # Usable capacity is the aligned chunk size (min one FS block).
            capacity = max(-(-chunksize // BLK) * BLK, BLK)
            pos = 0
            while done < len(view):
                take = min(len(view) - done, capacity - pos)
                if take == 0:
                    f.ensure_free_space(min(capacity, len(view) - done))
                    pos = 0
                    continue
                f.write(view[done : done + take])
                pos += take
                done += take
        elif variant == "coalesced":
            w = CoalescingWriter(f, buffer_size=buffer_size)
            done = 0
            view = memoryview(payload)
            for cut in pieces:
                w.write(view[done : done + cut])
                done += cut
            w.write(view[done:])
            w.close()
        else:  # pragma: no cover - defensive
            raise AssertionError(variant)
    return _disk_bytes(backend), backend


payloads = st.binary(min_size=0, max_size=4000)
chunksizes = st.integers(min_value=1, max_value=1400)
buffer_sizes = st.integers(min_value=1, max_value=1200)
piece_lists = st.lists(st.integers(min_value=0, max_value=700), max_size=8)


def _clip_pieces(pieces, total):
    out, acc = [], 0
    for p in pieces:
        if acc + p > total:
            break
        out.append(p)
        acc += p
    return out


@settings(max_examples=40, deadline=None)
@given(
    payload=payloads,
    chunksize=chunksizes,
    buffer_size=buffer_sizes,
    pieces=piece_lists,
)
def test_disk_bytes_identical_across_write_paths(
    payload, chunksize, buffer_size, pieces
):
    pieces = _clip_pieces(pieces, len(payload))
    reference, ref_backend = _write_multifile(
        "fwrite-whole", payload, chunksize, buffer_size, pieces
    )
    for variant in ("fwrite-pieces", "ansi-write", "coalesced"):
        got, _ = _write_multifile(variant, payload, chunksize, buffer_size, pieces)
        assert got == reference, f"{variant} diverged from fwrite-whole"
    # And the logical stream reads back intact.
    with serial.open("/m.sion", "r", backend=ref_backend) as f:
        assert f.read_task(0) == payload


@settings(max_examples=25, deadline=None)
@given(payload=payloads, chunksize=chunksizes)
def test_disk_bytes_identical_across_input_types(payload, chunksize):
    variants = [
        payload,
        bytearray(payload),
        memoryview(payload),
        memoryview(bytearray(payload)),
        np.frombuffer(payload, dtype=np.uint8),
    ]
    outputs = []
    for data in variants:
        backend = _backend()
        with serial.open(
            "/m.sion", "w", chunksizes=[chunksize], fsblksize=BLK, backend=backend
        ) as f:
            f.seek(0, 0, 0)
            f.fwrite(data)
        outputs.append(_disk_bytes(backend))
    assert all(o == outputs[0] for o in outputs)


@settings(max_examples=25, deadline=None)
@given(
    payload=payloads,
    chunksize=st.integers(min_value=64, max_value=1400),
    pieces=piece_lists,
)
def test_compressed_path_roundtrips_the_logical_stream(payload, chunksize, pieces):
    pieces = _clip_pieces(pieces, len(payload))
    backend = _backend()
    (comm,) = make_world(1)
    f = paropen(
        "/z.sion", "w", comm, chunksize=chunksize, fsblksize=BLK,
        backend=backend, compress=True,
    )
    done = 0
    view = memoryview(payload)
    for cut in pieces:
        f.fwrite(view[done : done + cut])
        done += cut
    f.fwrite(view[done:])
    f.parclose()
    with serial.open("/z.sion", "r", backend=backend) as g:
        assert g.read_task(0) == payload
    (comm,) = make_world(1)
    h = paropen("/z.sion", "r", comm, backend=backend)
    assert h.read_all() == payload
    h.parclose()


@settings(max_examples=20, deadline=None)
@given(
    payload=st.binary(min_size=0, max_size=2000),
    chunksize=st.integers(min_value=1, max_value=900),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_noncontiguous_ndarray_payload(payload, chunksize, seed):
    """A strided array flattens once at the entry boundary, correctly."""
    arr = np.frombuffer(payload + b"\0", dtype=np.uint8)
    strided = arr[:: 1 + seed % 3]
    backend = _backend()
    with serial.open(
        "/nc.sion", "w", chunksizes=[chunksize], fsblksize=BLK, backend=backend
    ) as f:
        f.seek(0, 0, 0)
        f.fwrite(strided)
    with serial.open("/nc.sion", "r", backend=backend) as f:
        assert f.read_task(0) == strided.tobytes()
