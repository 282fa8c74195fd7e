"""The TCP gateway: frame protocol round-trips, errors, session reaping."""

from __future__ import annotations

import asyncio
import pathlib

import pytest

from repro.backends.simfs_backend import SimBackend
from repro.errors import SionUsageError
from repro.fs.simfs import SimFS
from repro.serve import GatewayClient, GatewayServer, ReadGateway
from repro.simmpi import run_spmd
from repro.sion import paropen, serial
from repro.sion.mapping import ReadPartition

NTASKS = 12
PATH = "/scratch/srv.sion"


def _payload(rank: int) -> bytes:
    return bytes((rank * 17 + i) % 256 for i in range(30 + rank * 5))


@pytest.fixture
def backend():
    fs = SimFS(blocksize_override=512)
    backend = SimBackend(fs)

    def program(comm):
        f = paropen(PATH, "w", comm, chunksize=256, backend=backend)
        f.fwrite(_payload(comm.rank))
        f.parclose()

    run_spmd(NTASKS, program, engine="threads")
    return backend


def _expected(backend):
    with serial.open(PATH, "r", backend=backend) as sf:
        return {r: sf.read_task(r) for r in range(NTASKS)}


def _run_with_server(backend, coro_fn):
    """Start a server on an OS port, run ``coro_fn(client)``, tear down."""

    async def runner():
        server = GatewayServer(ReadGateway(backend=backend, cache_bytes=1 << 20))
        await server.start()
        client = await GatewayClient.connect("127.0.0.1", server.port)
        try:
            return await coro_fn(client, server)
        finally:
            await client.close()
            await server.shutdown()

    return asyncio.run(runner())


def test_roundtrip_sessions_and_stateless_reads(backend):
    expected = _expected(backend)

    async def scenario(client, server):
        assert await client.ping()
        part = ReadPartition.balanced(NTASKS, 3)
        for r in range(3):
            sid = await client.open_session(PATH, readers=3, reader=r)
            data = await client.read_all(sid)
            assert data == b"".join(expected[w] for w in part.writers_of(r))
            assert await client.session_eof(sid)
            await client.close_session(sid)
        # rank session with chunked reads
        sid = await client.open_session(PATH, rank=4)
        out = b""
        while True:
            piece = await client.read(sid, 7)
            if not piece:
                break
            out += piece
        assert out == expected[4]
        await client.close_session(sid)
        # stateless ops
        assert await client.read_task(PATH, 2) == expected[2]
        assert await client.read_range(PATH, 2, 3, 8) == expected[2][3:11]
        stats = await client.stats()
        assert stats["sessions_opened"] == 4
        assert stats["cache"]["lookups"] > 0

    _run_with_server(backend, scenario)


def test_errors_cross_the_wire_as_exceptions(backend):
    async def scenario(client, server):
        with pytest.raises(SionUsageError, match="out of range"):
            await client.open_session(PATH, rank=NTASKS)
        with pytest.raises(SionUsageError, match="unknown session"):
            await client.read(12345, 4)
        with pytest.raises(SionUsageError, match="unknown op"):
            await client._call({"op": "explode"})
        # The connection survives errors: a valid op still works.
        assert await client.ping()

    _run_with_server(backend, scenario)


def test_dead_connection_reaps_its_sessions(backend):
    async def runner():
        gw = ReadGateway(backend=backend, cache_bytes=1 << 20)
        server = GatewayServer(gw)
        await server.start()
        client = await GatewayClient.connect("127.0.0.1", server.port)
        await client.open_session(PATH, rank=1)
        await client.open_session(PATH, rank=2)
        assert gw.snapshot()["sessions_active"] == 2
        await client.close()  # drop without closing sessions
        for _ in range(100):  # let the server notice the EOF
            await asyncio.sleep(0.01)
            if gw.snapshot()["sessions_active"] == 0:
                break
        assert gw.snapshot()["sessions_active"] == 0
        await server.shutdown()

    asyncio.run(runner())


def test_graceful_shutdown_drains_in_flight_request(backend):
    expected = _expected(backend)

    async def runner():
        gw = ReadGateway(backend=backend, cache_bytes=1 << 20)
        server = GatewayServer(gw)
        await server.start()

        # Make read_task hold until released, so a request is provably
        # in flight when the drain starts.
        entered = asyncio.Event()
        release = asyncio.Event()
        real_read_task = gw.read_task

        async def slow_read_task(path, rank):
            entered.set()
            await release.wait()
            return await real_read_task(path, rank)

        gw.read_task = slow_read_task

        busy = await GatewayClient.connect("127.0.0.1", server.port)
        idle = await GatewayClient.connect("127.0.0.1", server.port)
        pending = asyncio.ensure_future(busy.read_task(PATH, 3))
        await entered.wait()

        server.request_shutdown()
        drained = asyncio.ensure_future(server.serve_until_shutdown())
        await asyncio.sleep(0.05)
        assert not drained.done()  # still waiting on the in-flight reply
        release.set()

        # The in-flight request completes with its full payload...
        assert await pending == expected[3]
        await drained  # ...and the drain finishes once it is answered.

        # Connections were folded server-side; new requests fail.
        with pytest.raises(SionUsageError, match="closed the connection"):
            await idle.ping()
        # The listener is gone: no new connections.
        with pytest.raises(OSError):
            await GatewayClient.connect("127.0.0.1", server.port)
        await busy.close()
        await idle.close()

    asyncio.run(runner())


def test_request_shutdown_is_idempotent_and_instant_when_idle(backend):
    async def runner():
        server = GatewayServer(ReadGateway(backend=backend))
        await server.start()
        server.request_shutdown()
        server.request_shutdown()  # second call is a no-op
        await asyncio.wait_for(server.serve_until_shutdown(), timeout=5)

    asyncio.run(runner())


def test_sigterm_triggers_graceful_drain(backend):
    import os
    import signal

    async def runner():
        gw = ReadGateway(backend=backend, cache_bytes=1 << 20)
        server = GatewayServer(gw)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, server.request_shutdown)
        try:
            client = await GatewayClient.connect("127.0.0.1", server.port)
            assert await client.read_task(PATH, 1) == _expected(backend)[1]
            serving = asyncio.ensure_future(server.serve_until_shutdown())
            await asyncio.sleep(0.02)
            assert not serving.done()
            os.kill(os.getpid(), signal.SIGTERM)  # what systemd sends
            await asyncio.wait_for(serving, timeout=5)
            await client.close()
        finally:
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.remove_signal_handler(sig)

    asyncio.run(runner())


def test_cli_serves_and_drains_on_sigterm(tmp_path):
    """End to end through ``python -m repro.serve``: real process, real signal."""
    import os
    import re
    import signal
    import subprocess
    import sys

    from repro.backends.localfs import LocalBackend

    backend = LocalBackend(blocksize_override=512)
    path = f"{tmp_path}/cli.sion"

    def program(comm):
        f = paropen(path, "w", comm, chunksize=256, backend=backend)
        f.fwrite(_payload(comm.rank))
        f.parclose()

    run_spmd(4, program, engine="threads")

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", path, "--port", "0"],
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=str(pathlib.Path(__file__).parents[2]),
    )
    try:
        for line in proc.stderr:
            m = re.search(r"serving on [\d.]+:(\d+)", line)
            if m:
                port = int(m.group(1))
                break
        else:
            raise AssertionError("server never reported its port")

        async def read_one():
            client = await GatewayClient.connect("127.0.0.1", port)
            try:
                return await client.read_task(path, 2)
            finally:
                await client.close()

        assert asyncio.run(read_one()) == _payload(2)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        assert "drained" in proc.stderr.read()
    finally:
        proc.stderr.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_many_clients_share_one_cache(backend):
    expected = _expected(backend)

    async def runner():
        gw = ReadGateway(backend=backend, cache_bytes=1 << 20)
        server = GatewayServer(gw)
        await server.start()

        async def one_client(rank):
            client = await GatewayClient.connect("127.0.0.1", server.port)
            try:
                return rank, await client.read_task(PATH, rank)
            finally:
                await client.close()

        results = await asyncio.gather(*(one_client(r) for r in range(NTASKS)))
        for rank, data in results:
            assert data == expected[rank]
        assert gw.snapshot()["containers_opened"] == 1
        await server.shutdown()

    asyncio.run(runner())


def test_shutdown_is_the_one_way_down():
    assert not hasattr(GatewayServer, "stop")


def test_shutdown_with_idle_clients_reports_nothing_to_the_loop(backend):
    seen: list[dict] = []

    async def runner():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: seen.append(context)
        )
        server = GatewayServer(ReadGateway(backend=backend))
        await server.start()
        clients = [await GatewayClient.connect("127.0.0.1", server.port) for _ in range(3)]
        for client in clients:
            assert await client.ping()  # each handler is live and idle
        await asyncio.wait_for(server.shutdown(), timeout=5)
        for client in clients:
            await client.close()

    asyncio.run(runner())
    assert seen == []
