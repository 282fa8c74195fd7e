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

Whatever outlives the call that passed it — a store piece, a journal
row, a collective-write fragment, a communicator deposit — is kept by
:func:`keep`, the one lifetime rule of the data plane: a view of an
immutable ``bytes`` is kept as that object or as a view of it (it can
never change), and any other buffer is copied once.  A kept view pins the
whole ``bytes`` for as long as the keeper holds it.

The module is dependency-free on purpose: both ``repro.backends`` and
``repro.fs`` import it, and those two packages import each other.
"""

from __future__ import annotations

from typing import Union

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


def concat_views(views: list[memoryview]) -> bytes:
    """Join read results; avoids the join when there is a single piece."""
    if len(views) == 1:
        piece = views[0]
        return piece if isinstance(piece, bytes) else bytes(piece)
    return b"".join(views)
