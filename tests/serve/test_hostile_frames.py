"""Hostile request frames: each closes its own connection and nothing else.

A request frame is a JSON object with no payload.  Every other frame —
one whose header is not JSON, a JSON value that is not an object, a
payload length that is negative, not an integer, or merely large — is a
protocol violation: the server raises :class:`SionUsageError` for it,
closes that connection without reading further, and keeps serving every
other client.  Nothing may escape to the event loop's exception handler.
"""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

import repro.serve.server as server_mod
from repro.backends.simfs_backend import SimBackend
from repro.errors import SionUsageError
from repro.fs.simfs import SimFS
from repro.serve import GatewayClient, GatewayServer, ReadGateway


def _frame(header: bytes) -> bytes:
    return struct.pack(">I", len(header)) + header


HOSTILE = {
    "not-json": _frame(b"{not json"),
    "json-list": _frame(b'["op", "ping"]'),
    "negative-plen": _frame(json.dumps({"op": "ping", "plen": -1}).encode()),
    "string-plen": _frame(json.dumps({"op": "ping", "plen": "x"}).encode()),
    "huge-plen": _frame(json.dumps({"op": "ping", "plen": 10**12}).encode()),
    "deep-nesting": _frame(b"[" * 100_000),
}

#: How long a refused connection may stay open.
PROMPT_S = 2.0


@pytest.mark.parametrize("name", list(HOSTILE))
def test_hostile_frame_closes_only_its_connection(name):
    seen: list[dict] = []

    async def runner():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: seen.append(context)
        )
        server = GatewayServer(ReadGateway(backend=SimBackend(SimFS())))
        await server.start()
        healthy = await GatewayClient.connect("127.0.0.1", server.port)
        try:
            assert await healthy.ping()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(HOSTILE[name])
            await writer.drain()
            # No reply, just EOF: the server closed the connection.
            assert await asyncio.wait_for(reader.read(), PROMPT_S) == b""
            writer.close()
            await writer.wait_closed()
            assert await healthy.ping()
        finally:
            await healthy.close()
            await server.shutdown()

    asyncio.run(runner())
    assert seen == []


@pytest.mark.parametrize("name", list(HOSTILE))
def test_hostile_frame_is_a_usage_error(name):
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(HOSTILE[name])
        reader.feed_eof()
        return await server_mod._read_request(reader)

    with pytest.raises(SionUsageError):
        asyncio.run(read())
