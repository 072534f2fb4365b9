"""The job-server client against a broken server.

``ServerClient`` reads responses straight off the network with
``repro.serve.proto``'s framing.  Whatever a server sends -- a status
line that is not HTTP/1.x, a missing, negative or oversized
``Content-Length``, a connection closed mid-head or mid-body, or
nothing at all -- the client raises ``ServerError`` or ``OSError``
within its timeout: never a hang, never an ``IndexError`` or
``ValueError`` traceback.  Each case runs against a small socket server
scripted here, as do the keep-alive rules: a reused connection the
server closed before answering is retried exactly once on a fresh one,
and a response carrying ``Connection: close`` drops its connection.
The command line fails the same way: a request file it cannot read or
that holds no run request is a usage error (exit 2), and a server it
cannot reach or that answers with an error exits 1 with one line.
"""

import concurrent.futures
import json
import socket
import sys
import threading
import time

import pytest

from repro.core.systems import system_config
from repro.serve import proto
from repro.serve.client import ServerClient, ServerError, main
from repro.sim.engine import RunRequest
from repro.sim.sampling import SamplingPlan
from repro.workloads.scaleout import WEB_SEARCH

#: The client's timeout in these tests, and the slack allowed past it.
TIMEOUT_S = 0.5
SLACK_S = 2.0

OK = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
      b"Content-Length: 12\r\n\r\n{\"ok\": true}")


def read_request(rfile):
    """One request's head and body off ``rfile``; None at EOF."""
    head = rfile.readline()
    if not head:
        return None
    length = 0
    while True:
        raw = rfile.readline()
        head += raw
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return head + rfile.read(length)


class ScriptedServer:
    """A TCP server on a free loopback port whose ``script(server,
    index, conn, rfile)`` serves its ``index``-th connection (from 1)
    on a thread; the connection is closed when the script returns."""

    def __init__(self, script):
        self.script = script
        self.connections = 0
        self.requests = []
        self._stop = threading.Event()
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.url = "http://127.0.0.1:%d" % self.sock.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _addr = self.sock.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._serve,
                             args=(self.connections, conn),
                             daemon=True).start()

    def _serve(self, index, conn):
        with conn, conn.makefile("rb") as rfile:
            self.script(self, index, conn, rfile)

    def answer(self, conn, rfile, reply=OK):
        """Read one request and send ``reply``; False at EOF."""
        request = read_request(rfile)
        if request is None:
            return False
        self.requests.append(request)
        conn.sendall(reply)
        return True

    def hold(self):
        self._stop.wait(30)

    def close(self):
        self._stop.set()
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _answer_once_then(reply):
    def script(server, _index, conn, rfile):
        server.answer(conn, rfile, reply)
    return script


BROKEN = {
    "status-not-http1": b"SPDY/3 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    "status-http2": b"HTTP/2 200\r\nContent-Length: 2\r\n\r\n{}",
    "status-no-code": b"HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
    "status-word-code": b"HTTP/1.1 OK 200\r\nContent-Length: 2\r\n\r\n{}",
    "status-too-long": b"HTTP/1.1 200 " + b"x" * (70 * 1024) + b"\r\n\r\n",
    "no-content-length": (b"HTTP/1.1 200 OK\r\n"
                          b"Content-Type: application/json\r\n\r\n{}"),
    "negative-content-length": (b"HTTP/1.1 200 OK\r\n"
                                b"Content-Length: -5\r\n\r\n{}"),
    "oversized-content-length": (
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n{}"
        % (proto.MAX_BODY_BYTES + 1)),
    "word-content-length": (b"HTTP/1.1 200 OK\r\n"
                            b"Content-Length: twelve\r\n\r\n{}"),
    "too-many-headers": (b"HTTP/1.1 200 OK\r\n"
                         + b"X-Pad: 1\r\n" * (proto.MAX_HEADERS + 1)
                         + b"Content-Length: 2\r\n\r\n{}"),
    "closed-in-status-line": b"HTTP/1.1 20",
    "closed-mid-head": b"HTTP/1.1 200 OK\r\nContent-Le",
    "closed-before-blank-line": b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
    "closed-mid-body": (b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                        b"\r\nContent-Length: 100\r\n\r\n{\"ok\": "),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_broken_response_raises_within_the_timeout(case):
    with ScriptedServer(_answer_once_then(BROKEN[case])) as server:
        with ServerClient(server.url, timeout=TIMEOUT_S) as client:
            t0 = time.monotonic()
            with pytest.raises((ServerError, OSError)) as exc:
                client.health()
            assert time.monotonic() - t0 < TIMEOUT_S + SLACK_S
            if isinstance(exc.value, ServerError):
                assert exc.value.status == 502, case
            # a connection that failed is never offered for reuse
            assert not client._idle


def test_undecodable_body_raises_and_keeps_the_framed_connection():
    reply = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
             b"Content-Length: 3\r\n\r\n{{{")

    def script(server, _index, conn, rfile):
        while server.answer(conn, rfile, reply):
            pass

    with ScriptedServer(script) as server:
        with ServerClient(server.url, timeout=TIMEOUT_S) as client:
            for _ in range(2):
                with pytest.raises(ServerError) as exc:
                    client.health()
                assert exc.value.status == 502
            assert server.connections == 1


def test_server_that_never_answers_times_out():
    def script(server, _index, _conn, rfile):
        read_request(rfile)
        server.hold()

    with ScriptedServer(script) as server:
        with ServerClient(server.url, timeout=TIMEOUT_S) as client:
            t0 = time.monotonic()
            with pytest.raises(OSError):
                client.health()
            elapsed = time.monotonic() - t0
            assert TIMEOUT_S * 0.9 <= elapsed < TIMEOUT_S + SLACK_S
            assert server.connections == 1


def test_server_that_never_answers_a_reused_connection_is_not_retried():
    def script(server, _index, conn, rfile):
        server.answer(conn, rfile)
        read_request(rfile)
        server.hold()

    with ScriptedServer(script) as server:
        with ServerClient(server.url, timeout=TIMEOUT_S) as client:
            assert client.health() == {"ok": True}
            t0 = time.monotonic()
            with pytest.raises(OSError):
                client.health()
            assert time.monotonic() - t0 < TIMEOUT_S + SLACK_S
            assert server.connections == 1


def test_keep_alive_reuses_one_connection():
    def script(server, _index, conn, rfile):
        while server.answer(conn, rfile):
            pass

    with ScriptedServer(script) as server:
        with ServerClient(server.url, timeout=TIMEOUT_S) as client:
            for _ in range(5):
                assert client.health() == {"ok": True}
            assert (server.connections, len(server.requests)) == (1, 5)
            # the request arrives exactly as proto renders it
            body = client._request("POST", "/runs", body={"x": 1})[0]
            assert body == {"ok": True}
            assert server.requests[-1] == proto.render_request(
                "POST", "/runs", "127.0.0.1:%d" % client.port, b'{"x": 1}')
            client.close()
            assert not client._idle


def test_concurrent_callers_each_hold_their_own_connection():
    # The idle stack is shared by every thread of a client: under a
    # tiny switch interval, no connection may serve two callers at
    # once (replies would cross) or go missing from the stack.
    def script(server, _index, conn, rfile):
        while True:
            request = read_request(rfile)
            if request is None:
                return
            body = b'{"path": "%s"}' % request.split(b" ", 2)[1]
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: "
                         b"application/json\r\nContent-Length: %d\r\n"
                         b"\r\n%s" % (len(body), body))

    callers, rounds = 8, 40
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ScriptedServer(script) as server:
            with ServerClient(server.url, timeout=10) as client:
                def call(k):
                    for j in range(rounds):
                        path = "/echo/%d/%d" % (k, j)
                        reply = client._request("GET", path)[0]
                        assert reply == {"path": path}

                with concurrent.futures.ThreadPoolExecutor(callers) as pool:
                    list(pool.map(call, range(callers)))
                assert 1 <= server.connections <= callers
                assert len(set(map(id, client._idle))) \
                    == len(client._idle) == server.connections
    finally:
        sys.setswitchinterval(interval)


def test_reused_connection_closed_by_the_server_is_retried_once():
    # The first connection answers once and closes (a server that
    # restarted, say); the request that finds it closed goes again on
    # a fresh connection, which answers.
    def script(server, index, conn, rfile):
        if index == 1:
            server.answer(conn, rfile)
        else:
            while server.answer(conn, rfile):
                pass

    with ScriptedServer(script) as server:
        with ServerClient(server.url, timeout=TIMEOUT_S) as client:
            assert client.health() == {"ok": True}
            time.sleep(0.1)             # let the close reach the client
            assert client.health() == {"ok": True}
            assert server.connections == 2
            assert len(server.requests) == 2


def test_the_retry_happens_exactly_once():
    # Every connection after the first is closed unanswered: the
    # reused one fails, its one retry fails, and the error surfaces.
    def script(server, index, conn, rfile):
        if index == 1:
            server.answer(conn, rfile)

    with ScriptedServer(script) as server:
        with ServerClient(server.url, timeout=TIMEOUT_S) as client:
            assert client.health() == {"ok": True}
            time.sleep(0.1)
            with pytest.raises(ConnectionError):
                client.health()
            assert server.connections == 2


def test_connection_close_response_drops_its_connection():
    closing = OK.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n", 1)
    seen_eof = threading.Event()

    def script(server, _index, conn, rfile):
        server.answer(conn, rfile, closing)
        # the client must close its end; the server does not
        if read_request(rfile) is None:
            seen_eof.set()

    with ScriptedServer(script) as server:
        with ServerClient(server.url, timeout=TIMEOUT_S) as client:
            assert client.health() == {"ok": True}
            assert not client._idle
            assert seen_eof.wait(5)
            assert client.health() == {"ok": True}
            assert server.connections == 2


def test_error_status_keeps_the_connection_and_carries_the_message():
    reply = (b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: "
             b"application/json\r\nRetry-After: 2.5\r\n"
             b"Content-Length: 19\r\n\r\n{\"error\": \"queued\"}")

    def script(server, _index, conn, rfile):
        while server.answer(conn, rfile, reply):
            pass

    with ScriptedServer(script) as server:
        with ServerClient(server.url, timeout=TIMEOUT_S) as client:
            for _ in range(2):
                with pytest.raises(ServerError) as exc:
                    client.health()
                assert exc.value.status == 429
                assert exc.value.retry_after == "2.5"
                assert "queued" in str(exc.value)
            assert server.connections == 1


def test_watch_reads_the_event_stream_to_eof():
    stream = (b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
              b"Connection: close\r\n\r\n"
              + proto.sse_event("hello", {"server": "x"})
              + proto.sse_event("job", {"key": "k", "state": "queued"}))

    with ScriptedServer(_answer_once_then(stream)) as server:
        with ServerClient(server.url, timeout=TIMEOUT_S) as client:
            assert list(client.watch()) == [
                ("hello", {"server": "x"}),
                ("job", {"key": "k", "state": "queued"})]
            assert not client._idle


def test_watch_refuses_a_broken_stream_head():
    with ScriptedServer(_answer_once_then(
            b"HTTP/9 200 OK\r\n\r\n")) as server:
        with ServerClient(server.url, timeout=TIMEOUT_S) as client:
            with pytest.raises(ServerError) as exc:
                list(client.watch())
            assert exc.value.status == 502


# -- the command line -------------------------------------------------------


def _request_file(tmp_path, text=None):
    """A request file holding ``text``, or a valid point's canonical
    JSON."""
    if text is None:
        request = RunRequest.point(system_config("baseline", num_cores=4,
                                                 scale=512),
                                   WEB_SEARCH, SamplingPlan(1500, 800), 7)
        text = json.dumps(request.canonical())
    path = tmp_path / "request.json"
    path.write_text(text)
    return str(path)


def _no_server_url():
    """The URL of a loopback port nothing listens on."""
    with socket.create_server(("127.0.0.1", 0)) as sock:
        return "http://127.0.0.1:%d" % sock.getsockname()[1]


@pytest.mark.parametrize("case", ["missing-config", "not-json",
                                  "not-an-object", "missing-file",
                                  "unestimable"])
def test_cli_refuses_a_bad_request_file_with_usage(case, tmp_path,
                                                   capsys):
    if case == "missing-file":
        path = str(tmp_path / "absent.json")
    else:
        with open(_request_file(tmp_path)) as f:
            data = json.load(f)
        # the server refuses an estimate its model cannot resolve
        unestimable = dict(data, mode="estimate", track_sharing=True)
        del data["config"]
        path = _request_file(tmp_path, {
            "missing-config": json.dumps(data),
            "not-json": "{config: baseline",
            "not-an-object": "[1, 2]",
            "unestimable": json.dumps(unestimable)}[case])
    with pytest.raises(SystemExit) as exc:
        main(["--server", _no_server_url(), "submit", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: python -m repro.serve.client submit")
    assert "error: %s: " % path in err
    assert "Traceback" not in err


def test_cli_refuses_a_server_url_with_a_bad_port(capsys):
    url = "http://127.0.0.1:port"
    with pytest.raises(SystemExit) as exc:
        main(["--server", url, "health"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: python -m repro.serve.client")
    assert "error: --server %s: " % url in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["submit", "health", "watch"])
def test_cli_without_a_server_exits_1_with_one_line(command, tmp_path,
                                                    capsys):
    argv = [command] + ([_request_file(tmp_path)]
                        if command == "submit" else [])
    url = _no_server_url()
    assert main(["--server", url] + argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("python -m repro.serve.client: error: %s: "
                          % url)


def test_cli_with_a_failing_server_exits_1_with_one_line(tmp_path,
                                                         capsys):
    reply = proto.error_response(500, "run failed:\nplanted")
    with ScriptedServer(_answer_once_then(reply)) as server:
        assert main(["--server", server.url, "submit",
                     _request_file(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "HTTP 500: run failed: planted" in err
