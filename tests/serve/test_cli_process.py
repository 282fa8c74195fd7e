"""``python -m repro.serve`` as a reader runs it: a real process on a real port.

The module is started as a subprocess over a set sealed on the local file
system.  It must announce its port, answer every ``GatewayClient`` call
(``ping``, ``stats``, a session's reads, stateless ``read_task`` and
``read_range``) with the exact bytes, drain and exit 0 on SIGTERM with nothing left in
its process group, and refuse a set with a missing physical file with
exit 1 and the loader's finding.  Its ``main`` also runs once in this
interpreter, where a client thread asks the server to drain.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import queue
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.backends.localfs import LocalBackend
from repro.serve import GatewayClient
from repro.serve import __main__ as cli
from repro.simmpi import run_spmd
from repro.sion import paropen
from repro.sion.mapping import physical_path
from tests.conftest import TEST_BLKSIZE

pytestmark = pytest.mark.skipif(os.name != "posix", reason="signals and process groups")

ROOT = pathlib.Path(__file__).resolve().parents[2]
NTASKS = 6
TIMEOUT = 60


def _payload(rank):
    return bytes((rank * 29 + i) % 256 for i in range(700 + 300 * rank))


def _seal(tmp_path):
    path = str(tmp_path / "srv.sion")
    backend = LocalBackend(blocksize_override=TEST_BLKSIZE)

    def program(comm):
        f = paropen(path, "w", comm, chunksize=512, nfiles=2, backend=backend)
        f.fwrite(_payload(comm.rank))
        f.parclose()

    run_spmd(NTASKS, program)
    return path


def _serve(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve", path, "--port", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )


def _lines(stream):
    """The stream's lines on a queue (``None`` at EOF), read by a thread."""
    lines = queue.Queue()

    def pump():
        for line in stream:
            lines.put(line.rstrip("\n"))
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    return lines


def _until(lines, pattern, seen):
    while (line := lines.get(timeout=TIMEOUT)) is not None:
        seen.append(line)
        if m := re.fullmatch(pattern, line):
            return m
    raise AssertionError(f"no line matching {pattern!r} in {seen}")


def test_the_module_serves_exact_bytes_and_drains_on_sigterm(tmp_path):
    path = _seal(tmp_path)
    proc = _serve(path, tmp_path)
    try:
        lines, seen = _lines(proc.stderr), []
        host, port = _until(lines, r"serving on (\S+):(\d+)", seen).groups()
        assert f"opened {path}: {NTASKS} streams in 2 file(s)" in seen

        async def client_calls():
            client = await GatewayClient.connect(host, int(port))
            try:
                sid = await client.open_session(path, readers=2, reader=1)
                head = await client.read(sid, 10)
                session = (head + await client.read_all(sid), await client.session_eof(sid))
                await client.close_session(sid)
                return await client.ping(), session, [
                    await client.read_task(path, r) for r in range(NTASKS)
                ], await client.read_range(path, 4, 100, 50), await client.stats()
            finally:
                await client.close()

        alive, session, data, ranged, stats = asyncio.run(client_calls())
        assert alive
        assert data == [_payload(r) for r in range(NTASKS)]
        assert session == (b"".join(_payload(r) for r in range(3, NTASKS)), True)
        assert ranged == _payload(4)[100:150]
        assert (stats["sessions_opened"], stats["sessions_active"]) == (1, 0)

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=TIMEOUT) == 0
        _until(lines, r"repro-serve: drained, gateway closed", seen)
        with pytest.raises(ProcessLookupError):  # nothing left in its group
            os.killpg(proc.pid, 0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()


def test_main_serves_in_process_until_shut_down(tmp_path, monkeypatch, capsys):
    """The same entry point run in this interpreter: a client thread
    reads, then asks the server to drain."""
    path = _seal(tmp_path)
    servers, seen = [], {}

    class Recording(cli.GatewayServer):
        async def start(self):
            self.loop = asyncio.get_running_loop()
            await super().start()
            servers.append(self)

    def client():
        deadline = time.monotonic() + TIMEOUT
        while not servers and time.monotonic() < deadline:
            time.sleep(0.01)
        if not servers:
            return
        server = servers[0]

        async def calls():
            conn = await GatewayClient.connect(server.host, server.port)
            try:
                seen["ping"] = await conn.ping()
                seen["data"] = [await conn.read_task(path, r) for r in range(NTASKS)]
            finally:
                await conn.close()

        try:
            asyncio.run(calls())
        finally:
            server.loop.call_soon_threadsafe(server.request_shutdown)

    monkeypatch.setattr(cli, "GatewayServer", Recording)
    helper = threading.Thread(target=client)
    helper.start()
    try:
        assert cli.main([path, "--port", "0"]) == 0
    finally:
        helper.join(timeout=TIMEOUT)
    assert not helper.is_alive()
    assert seen == {"ping": True, "data": [_payload(r) for r in range(NTASKS)]}
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"opened {path}: {NTASKS} streams in 2 file(s)",
        f"serving on 127.0.0.1:{servers[0].port}",
        "repro-serve: drained, gateway closed",
    ]


def test_a_set_with_a_missing_file_exits_1_naming_it(tmp_path):
    path = _seal(tmp_path)
    lost = physical_path(path, 1)
    os.unlink(lost)
    proc = _serve(path, tmp_path)
    try:
        _, err = proc.communicate(timeout=TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 1
    assert f"repro-serve: {lost}: missing: no such file" in err.splitlines()
