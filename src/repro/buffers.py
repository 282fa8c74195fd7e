"""Buffer-view discipline for the zero-copy data plane.

Every layer of the byte-movement path — :class:`~repro.sion.buffering.CoalescingWriter`,
:class:`~repro.sion.readwrite.WriteStream`, the transparent compression
wrapper, and the backends — accepts any object exporting the buffer
protocol (``bytes``, ``bytearray``, ``memoryview``, NumPy arrays) and
forwards a flat byte *view* of it instead of materializing intermediate
``bytes`` copies.  :func:`as_view` is the single normalization point:

* contiguous buffers are wrapped without copying (slices of the returned
  view keep referencing the caller's memory all the way down to the
  backend, where the store copies what it cannot share);
* non-contiguous exporters (e.g. a strided NumPy slice) cannot be
  byte-cast, so they are flattened with exactly **one** materializing
  copy at this entry boundary — never again further down.

Whatever outlives the call that passed it is kept by one lifetime rule
of the data plane: a view of an immutable ``bytes`` is kept as that
object, or as something that points into it (it can never change), and
any other buffer is copied once.  :func:`keep` applies it for the
journal's write rows, the collective-write fragments and the
communicator's deposits (a view of a ``bytes`` is kept as a view of it).
The coalescing writer keeps its records by copying them into its
staging buffer, but hands a flush that is one span of a caller's
``bytes`` down as a view of that span, which every keeper below then
shares.
The store keeps no view: a ``SparseFile`` piece is the ``bytes`` itself
plus two numbers, the offset that :func:`offset_in` reads and the
length.  Its reads hand the rule back out: a read inside one piece is a
read-only view of that ``bytes``.  Either way the whole ``bytes`` stays
alive for as long as the keeper holds it.

The module imports nothing from ``repro`` on purpose: both
``repro.backends`` and ``repro.fs`` import it, and those two packages
import each other.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: Anything the data plane accepts as a write payload.
BufferLike = Union[bytes, bytearray, memoryview]


def as_view(data: BufferLike) -> memoryview:
    """Flat (1-D, itemsize-1, C-contiguous) read view of ``data``.

    Wraps without copying whenever the buffer protocol allows it; the
    returned view's ``.obj`` stays the original exporter, which the
    instrumented backend uses to prove zero-copy delivery.  Raises
    ``TypeError`` for objects that do not export the buffer protocol.
    """
    view = data if type(data) is memoryview else memoryview(data)
    if (
        view.ndim != 1
        or view.itemsize != 1
        or not view.c_contiguous
        or view.format not in ("B", "b", "c")
    ):
        try:
            view = view.cast("B")
        except TypeError:
            # Non-contiguous exporter: flatten once, here and only here.
            view = memoryview(view.tobytes())
    return view


def keep(view: memoryview) -> "bytes | memoryview":
    """What a layer keeps of ``view`` once the call that passed it returns.

    A contiguous view of an immutable ``bytes`` is kept as that object when
    it spans all of it, else as a new view of it (one the caller cannot
    release); any other exporter may change later, so it is copied once,
    as ``bytes`` (non-contiguous views flatten in C order).
    """
    obj = view.obj
    if type(obj) is bytes and view.c_contiguous:
        return obj if view.nbytes == len(obj) else view[:]
    return view.tobytes()


def offset_in(view: memoryview) -> int:
    """Where ``view``, a contiguous view of the ``bytes`` ``view.obj``,
    starts inside that object.

    Both start addresses are read by numpy from the buffers themselves
    (``ndarray.ctypes.data``; ``__array_interface__`` gives the same
    number but builds a dict per call, and numpy 2.4 then keeps a
    further ~1 MiB block after some ten thousand calls).  Nothing is
    derived from ``id()`` or the object's memory layout, and nothing is
    cached: a reused ``id`` would give a wrong offset, hence wrong bytes.
    """
    if view.nbytes == len(view.obj):
        return 0
    return _address(view) - _address(view.obj)


def _address(buf) -> int:
    """Address of the first byte of ``buf``'s buffer."""
    return np.frombuffer(buf, np.uint8).ctypes.data


def concat_views(views: list[memoryview]) -> bytes:
    """Join read results; avoids the join when there is a single piece."""
    if len(views) == 1:
        piece = views[0]
        return piece if isinstance(piece, bytes) else bytes(piece)
    return b"".join(views)
