"""TCP frame protocol for the read gateway: out-of-process consumers.

The wire format is deliberately boring — one frame per message:

.. code-block:: text

    +----------------+----------------------+------------------+
    | header length  |  JSON header         |  binary payload  |
    | 4 bytes (BE)   |  header-length bytes |  header.plen     |
    +----------------+----------------------+------------------+

Requests are JSON headers with an ``op`` field (``open_session``,
``read``, ``read_all``, ``eof``, ``read_task``, ``read_range``,
``close_session``, ``stats``, ``ping``) and no payload; chunk payload
travels as the binary tail of the response frame, so record bytes are
never base64'd or embedded in JSON.  A request frame that is not a JSON
object, or that claims a payload, closes its connection, as a
truncated frame does.  Errors come back as ``{"ok": false, "kind": ...,
"error": ...}`` and are re-raised client-side as
:class:`~repro.errors.SionUsageError`.

:class:`GatewayServer` wraps one :class:`~repro.serve.gateway.ReadGateway`
(all connections share its container table and chunk cache);
:class:`GatewayClient` is the matching asyncio client.  Both are plain
asyncio — one coroutine per connection, requests on a connection are
answered in order.

Shutdown is one graceful drain: :meth:`GatewayServer.shutdown` (or
:meth:`GatewayServer.request_shutdown`, which the ``repro-serve`` CLI
wires to SIGINT/SIGTERM) stops accepting, answers every request already
on the wire, closes idle connections, then closes the gateway.  A
request racing the signal is answered; one sent after its connection
drained is not.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any

from repro.errors import SionUsageError
from repro.serve.gateway import ReadGateway

_LEN = struct.Struct(">I")

#: Refuse headers over this size: nothing legitimate comes close.
MAX_HEADER = 1 << 20


async def _read_header(reader: asyncio.StreamReader) -> "dict | None":
    """Read one frame's header; ``None`` on clean EOF at a frame boundary.

    The header must be a JSON object whose ``plen`` (default 0) is a
    non-negative integer; anything else is a :class:`SionUsageError`.
    """
    try:
        raw_len = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise SionUsageError("truncated frame header") from exc
    (hlen,) = _LEN.unpack(raw_len)
    if hlen > MAX_HEADER:
        raise SionUsageError(f"frame header of {hlen} bytes exceeds {MAX_HEADER}")
    try:
        blob = await reader.readexactly(hlen)
    except asyncio.IncompleteReadError as exc:
        raise SionUsageError("connection closed mid-frame") from exc
    try:
        header = json.loads(blob)
    except (ValueError, RecursionError) as exc:
        raise SionUsageError("frame header is not JSON") from exc
    if not isinstance(header, dict):
        raise SionUsageError("frame header is not a JSON object")
    plen = header.get("plen", 0)
    if type(plen) is not int or plen < 0:
        raise SionUsageError(f"frame payload length {plen!r} is not a byte count")
    return header


async def _read_frame(reader: asyncio.StreamReader) -> "tuple[dict, bytes] | None":
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    header = await _read_header(reader)
    if header is None:
        return None
    try:
        payload = await reader.readexactly(header.get("plen", 0))
    except asyncio.IncompleteReadError as exc:
        raise SionUsageError("connection closed mid-frame") from exc
    return header, payload


async def _read_request(reader: asyncio.StreamReader) -> "dict | None":
    """Read one request header; ``None`` on clean EOF at a frame boundary.

    No request op carries a payload, so a request claiming one is
    refused before a byte of it is read or buffered.
    """
    header = await _read_header(reader)
    if header is not None and header.get("plen", 0):
        raise SionUsageError("request frames carry no payload")
    return header


def _write_frame(
    writer: asyncio.StreamWriter, header: dict, payload: bytes = b""
) -> None:
    """Queue one frame on ``writer`` (caller drains)."""
    if payload:
        header = {**header, "plen": len(payload)}
    blob = json.dumps(header, separators=(",", ":")).encode()
    writer.write(_LEN.pack(len(blob)) + blob + payload)


class GatewayServer:
    """Serve a :class:`ReadGateway` over TCP.

    Example::

        server = GatewayServer(ReadGateway(backend))
        await server.start()                  # port 0 -> OS-assigned
        ... # connect GatewayClient("127.0.0.1", server.port)
        await server.shutdown()

    Sessions opened over a connection are owned by it: when the
    connection drops, its sessions are closed automatically so a dead
    client never leaks cursor state.
    """

    def __init__(
        self, gateway: ReadGateway, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        """Bind (lazily) to ``host``/``port``; ``port=0`` asks the OS."""
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: "asyncio.base_events.Server | None" = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: "set[asyncio.Task]" = set()

    async def start(self) -> None:
        """Open the listening socket; :attr:`port` is real afterwards."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; safe in a signal handler).

        Closes the listening socket so no new connection is accepted and
        tells every connection handler to finish the request it is
        serving (if any) and then fold.  Returns immediately — await
        :meth:`shutdown` or :meth:`serve_until_shutdown` for completion.
        """
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        if self._server is not None:
            self._server.close()

    async def shutdown(self) -> None:
        """Drain gracefully: answer in-flight requests, then close up.

        Triggers :meth:`request_shutdown` if nothing has yet, waits for
        every live connection handler to retire, then closes the
        listener and the gateway's containers.
        """
        self.request_shutdown()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self.gateway.close()

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown` fires, then drain and stop.

        The CLI entry point: wire ``loop.add_signal_handler(sig,
        server.request_shutdown)`` and await this — it returns once
        every in-flight request has been answered and the gateway is
        closed.
        """
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.shutdown()

    async def _next_request(self, reader: asyncio.StreamReader) -> "dict | None":
        """One request header, or ``None`` on EOF *or* shutdown while idle.

        Races the frame read against the drain event so an idle
        connection folds promptly; a frame that wins the race is still
        returned (and answered) even if the drain fires the same tick.
        """
        read = asyncio.ensure_future(_read_request(reader))
        stop = asyncio.ensure_future(self._shutdown.wait())
        try:
            done, _ = await asyncio.wait(
                {read, stop}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            stop.cancel()
        if read in done:
            return read.result()
        read.cancel()
        try:
            await read
        except (asyncio.CancelledError, SionUsageError, ConnectionError):
            pass
        return None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        owned: set[int] = set()
        try:
            while not self._shutdown.is_set():
                header = await self._next_request(reader)
                if header is None:
                    break
                try:
                    reply, payload = await self._dispatch(header, owned)
                except SionUsageError as exc:
                    reply, payload = (
                        {"ok": False, "kind": "usage", "error": str(exc)},
                        b"",
                    )
                except Exception as exc:  # noqa: BLE001 - wire boundary
                    reply, payload = (
                        {"ok": False, "kind": type(exc).__name__, "error": str(exc)},
                        b"",
                    )
                _write_frame(writer, reply, payload)
                await writer.drain()
        except (SionUsageError, ConnectionError):
            pass  # protocol violation or abrupt drop: just fold the connection
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            for sid in owned:
                try:
                    await self.gateway.close_session(sid)
                except SionUsageError:
                    pass  # already closed by the client
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # last statement of the handler: nothing left to cancel

    async def _dispatch(
        self, header: dict, owned: set[int]
    ) -> tuple[dict, bytes]:
        op = header.get("op")
        gw = self.gateway
        if op == "ping":
            return {"ok": True}, b""
        if op == "stats":
            return {"ok": True, "stats": await gw.stats()}, b""
        if op == "open_session":
            sid = await gw.open_session(
                header["path"],
                readers=header.get("readers"),
                reader=header.get("reader"),
                rank=header.get("rank"),
            )
            owned.add(sid)
            return {"ok": True, "session": sid}, b""
        if op == "read":
            data = await gw.read(header["session"], header["n"])
            return {"ok": True}, data
        if op == "read_all":
            data = await gw.read_all(header["session"])
            return {"ok": True}, data
        if op == "eof":
            return {"ok": True, "eof": await gw.session_eof(header["session"])}, b""
        if op == "read_task":
            data = await gw.read_task(header["path"], header["rank"])
            return {"ok": True}, data
        if op == "read_range":
            data = await gw.read_range(
                header["path"], header["rank"], header["offset"], header["n"]
            )
            return {"ok": True}, data
        if op == "close_session":
            await gw.close_session(header["session"])
            owned.discard(header["session"])
            return {"ok": True}, b""
        raise SionUsageError(f"unknown op {op!r}")


class GatewayClient:
    """Asyncio client for a :class:`GatewayServer`.

    Mirrors the :class:`ReadGateway` session API over one connection::

        client = await GatewayClient.connect("127.0.0.1", server.port)
        sid = await client.open_session("/ckpt.sion", rank=7)
        data = await client.read(sid, 4096)
        await client.close()

    One in-flight request per client; open several clients for
    connection-level concurrency.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Wrap an established connection (use :meth:`connect`)."""
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()

    @classmethod
    async def connect(cls, host: str, port: int) -> "GatewayClient":
        """Open a TCP connection to a running gateway server."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _call(self, header: dict) -> tuple[dict, bytes]:
        async with self._lock:
            _write_frame(self._writer, header)
            await self._writer.drain()
            frame = await _read_frame(self._reader)
        if frame is None:
            raise SionUsageError("server closed the connection")
        reply, payload = frame
        if not reply.get("ok"):
            raise SionUsageError(
                f"gateway error ({reply.get('kind')}): {reply.get('error')}"
            )
        return reply, payload

    async def ping(self) -> bool:
        """Round-trip liveness probe."""
        reply, _ = await self._call({"op": "ping"})
        return bool(reply["ok"])

    async def stats(self) -> dict[str, Any]:
        """The server's stats endpoint (gateway + cache telemetry)."""
        reply, _ = await self._call({"op": "stats"})
        return reply["stats"]

    async def open_session(
        self,
        path: str,
        *,
        readers: "int | None" = None,
        reader: "int | None" = None,
        rank: "int | None" = None,
    ) -> int:
        """Open a record-read session (see :meth:`ReadGateway.open_session`)."""
        header: dict[str, Any] = {"op": "open_session", "path": path}
        if readers is not None:
            header["readers"] = readers
        if reader is not None:
            header["reader"] = reader
        if rank is not None:
            header["rank"] = rank
        reply, _ = await self._call(header)
        return int(reply["session"])

    async def read(self, session: int, n: int) -> bytes:
        """Read up to ``n`` record bytes from ``session``."""
        _, payload = await self._call({"op": "read", "session": session, "n": n})
        return payload

    async def read_all(self, session: int) -> bytes:
        """Drain everything that remains of ``session``'s slice."""
        _, payload = await self._call({"op": "read_all", "session": session})
        return payload

    async def session_eof(self, session: int) -> bool:
        """True once ``session``'s slice is exhausted."""
        reply, _ = await self._call({"op": "eof", "session": session})
        return bool(reply["eof"])

    async def read_task(self, path: str, rank: int) -> bytes:
        """Whole logical stream of writer ``rank`` (stateless)."""
        _, payload = await self._call(
            {"op": "read_task", "path": path, "rank": rank}
        )
        return payload

    async def read_range(self, path: str, rank: int, offset: int, n: int) -> bytes:
        """Stateless ranged read inside writer ``rank``'s stream."""
        _, payload = await self._call(
            {"op": "read_range", "path": path, "rank": rank, "offset": offset, "n": n}
        )
        return payload

    async def close_session(self, session: int) -> None:
        """Retire one server-side session."""
        await self._call({"op": "close_session", "session": session})

    async def close(self) -> None:
        """Close the connection (server reaps any sessions it still owns)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
