"""Thin client for the simulation job server.

Three layers:

* :class:`ServerClient` -- a synchronous wrapper over the server's
  endpoints: submit a :class:`~repro.sim.engine.RunRequest`, poll a
  key, stream SSE events, scrape health/metrics.  It keeps idle
  keep-alive connections for reuse and frames requests and responses
  with :mod:`repro.serve.proto`, the module the server uses.
  Summaries default to the pickle wire format (trusted in-repo server;
  see ``repro.serve.proto``) so a round-trip returns the same
  ``RunSummary`` object a local engine would have;
* :class:`HttpTransport` -- an executor transport for
  :class:`repro.sim.engine.RunEngine` that resolves every simulated
  point on a server.  The experiment CLI's ``--server URL`` installs
  it, so the whole pipeline (``run_grid`` and every fig/table
  function) runs unchanged against a remote server, with the engine's
  own dedup, mode policy and observation session on the client side;
* a command line: ``python -m repro.serve.client
  submit|watch|health``.

The client is deliberately synchronous: it is the *submitting* side,
usually inside scripts or the blocking experiment pipeline.  A batch's
distinct points still overlap in flight via the transport's small
thread pool, which is all the concurrency a submitter needs.
"""

import argparse
import concurrent.futures
import json
import pickle
import socket
import sys
import threading

from repro.obs.profile import clock
from repro.serve import proto


class ServerError(Exception):
    """Non-2xx response from the job server; status 502 stands for a
    response that breaks :mod:`repro.serve.proto`'s framing."""

    def __init__(self, status, message):
        super().__init__("HTTP %d: %s" % (status, message))
        self.status = status


class _Unanswered(ConnectionError):
    """The server closed a connection before any byte of a response."""


def _bad_response(message):
    """The error for a response that breaks the framing."""
    return ServerError(502, "bad response: %s" % (message,))


def _parse_url(url):
    """``http://host:port`` -> (host, port)."""
    rest = url.split("://", 1)[-1].rstrip("/")
    host, _, port = rest.partition(":")
    return host or "127.0.0.1", int(port) if port else 80


class _Connection:
    """One connection to the server, speaking :mod:`repro.serve.proto`'s
    framing: a request goes out in one ``sendall``; a response is a
    status line, header lines parsed by :func:`proto.parse_head`, and
    a ``Content-Length`` body.  Any failure closes it."""

    def __init__(self, host, port, timeout):
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self):
        self.rfile.close()
        self.sock.close()

    def exchange(self, message):
        """Send one rendered request; returns ``(status, headers,
        body)`` of its response.  Raises :class:`_Unanswered` when the
        connection ends before the response's first byte,
        :class:`ConnectionError` when it ends later, and
        :class:`ServerError` (502) on a malformed response."""
        try:
            try:
                self.sock.sendall(message)
                first = self.rfile.readline(proto.MAX_LINE_BYTES + 1)
            except (BrokenPipeError, ConnectionResetError,
                    ConnectionAbortedError) as e:
                raise _Unanswered("server closed the connection: %s"
                                  % e) from None
            if not first:
                raise _Unanswered("server closed the connection without "
                                  "a response")
            status, headers, length = self.read_head(first)
            if length is None:
                raise _bad_response("no Content-Length")
            body = self.rfile.read(length)
            if len(body) < length:
                raise ConnectionError("connection closed mid-body: got "
                                      "%d of %d bytes" % (len(body), length))
            return status, headers, body
        except BaseException:
            self.close()
            raise

    def read_head(self, first):
        """``(status, headers, length)`` of a response whose first line
        (as read) is ``first``; reads the rest of its head."""
        status = _status(_whole(first))
        lines = []
        while True:
            line = _whole(self.rfile.readline(proto.MAX_LINE_BYTES + 1))
            if line in (b"\r\n", b"\n"):
                break
            lines.append(line)
            if len(lines) > proto.MAX_HEADERS:
                raise _bad_response("too many headers")
        try:
            headers, length = proto.parse_head(lines)
        except proto.ProtocolError as e:
            raise _bad_response(e) from None
        return status, headers, length


def _whole(line):
    """``line`` as read from a response head, if it is a whole line."""
    if line.endswith(b"\n"):
        return line
    if len(line) > proto.MAX_LINE_BYTES:
        raise _bad_response("line too long")
    raise ConnectionError("connection closed inside the response head")


def _status(line):
    """The status code of an ``HTTP/1.x NNN reason`` status line."""
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") \
            or len(parts[1]) != 3 or not parts[1].isdigit():
        raise _bad_response("malformed status line %r" % line[:80])
    return int(parts[1])


class ServerClient:
    """Synchronous HTTP client for one job server.

    Connections are kept alive and reused: a finished request puts its
    connection on a lock-guarded stack of idle ones, and the next
    request takes one from there, so concurrent callers (the
    :class:`HttpTransport` threads share one client) hold one each.  A
    response carrying ``Connection: close`` drops its connection.  A
    reused connection that the server closed before any byte of the
    response arrived is retried once, on a fresh connection: the
    request never reached a handler, and ``POST /runs`` is
    deduplicated by key anyway.  :meth:`close` closes the idle ones.
    """

    def __init__(self, url, timeout=600.0):
        self.url = url.rstrip("/")
        self.host, self.port = _parse_url(url)
        self.timeout = timeout
        self._idle = []
        self._lock = threading.Lock()

    def close(self):
        """Close every idle connection; later requests open new ones."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connect(self):
        return _Connection(self.host, self.port, self.timeout)

    def _exchange(self, message):
        """``(status, headers, body)`` of one request, on an idle
        connection if there is one."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        response = None
        if conn is not None:
            try:
                response = conn.exchange(message)
            except _Unanswered:
                pass                # closed while idle: go again, once
        if response is None:
            conn = self._connect()
            response = conn.exchange(message)
        if response[1].get("connection", "").lower() == "close":
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return response

    def _request(self, method, path, body=None):
        if body is not None:
            body = json.dumps(body).encode("utf-8")
        status, headers, payload = self._exchange(proto.render_request(
            method, path, "%s:%d" % (self.host, self.port), body))
        ctype = headers.get("content-type", "")
        dedup = headers.get("x-silo-dedup", "none")
        if status >= 400:
            try:
                message = json.loads(payload)["error"]
            except (ValueError, KeyError, TypeError):
                message = payload.decode("utf-8", "replace")
            err = ServerError(status, message)
            err.retry_after = headers.get("retry-after")
            raise err
        try:
            if ctype.startswith(proto.PICKLE_CONTENT_TYPE):
                return pickle.loads(payload), dedup
            if ctype.startswith("application/json"):
                return json.loads(payload), dedup
            return payload.decode("utf-8"), dedup
        except (ValueError, EOFError, pickle.UnpicklingError) as e:
            raise ServerError(502, "undecodable %s body: %s"
                              % (ctype, e)) from None

    # -- endpoints -------------------------------------------------------

    def submit(self, request, priority="batch", wait=True,
               fmt="pickle"):
        """Submit one RunRequest; returns ``(doc, dedup)`` where
        ``doc["summary"]`` is a RunSummary (pickle format) or its dict
        form (json format)."""
        doc, dedup = self._request("POST", "/runs", body={
            "request": request.canonical(), "priority": priority,
            "wait": wait, "format": fmt})
        if fmt == "json" and isinstance(doc, dict) \
                and isinstance(doc.get("summary"), dict):
            doc = dict(doc)
            doc["summary"] = proto.summary_from_wire(doc["summary"])
        return doc, dedup

    def run(self, request, priority="batch"):
        """Submit and return just the RunSummary."""
        doc, _dedup = self.submit(request, priority=priority)
        return doc["summary"]

    def status(self, key, fmt="json"):
        doc, _dedup = self._request(
            "GET", "/runs/%s?format=%s" % (key, fmt))
        return doc

    def health(self):
        doc, _dedup = self._request("GET", "/healthz")
        return doc

    def metrics(self):
        text, _dedup = self._request("GET", "/metrics")
        return text

    def watch(self, key=None):
        """Generator of ``(event, payload)`` from the SSE stream;
        terminates when the server closes the connection.  The stream
        has a connection of its own, never reused."""
        conn = self._connect()
        try:
            path = "/events" + ("?key=%s" % key if key else "")
            conn.sock.sendall(proto.render_request(
                "GET", path, "%s:%d" % (self.host, self.port)))
            first = conn.rfile.readline(proto.MAX_LINE_BYTES + 1)
            if not first:
                return
            status, _headers, _length = conn.read_head(first)
            if status != 200:
                raise ServerError(status, "GET %s: no event stream" % path)
            event = None
            while True:
                raw = conn.rfile.readline(proto.MAX_LINE_BYTES + 1)
                if not raw:
                    return
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: ") and event is not None:
                    yield event, json.loads(line[len("data: "):])
                elif not line:
                    event = None
        finally:
            conn.close()


class HttpTransport:
    """Executor transport that posts each point to a job server.

    ``submit`` runs :meth:`ServerClient.submit` on a thread pool of
    ``max_connections``, so a batch's distinct points are in flight
    together and the server can batch them into one engine dispatch.
    A span's worker is ``http:<X-Silo-Dedup>`` -- how the server
    resolved the point (``none``, ``inflight``, ``memo``, ``cache``)
    -- and its ``exec_s`` is the round trip.
    """

    def __init__(self, url, priority="batch", max_connections=8):
        self.client = ServerClient(url)
        self.priority = priority
        self.max_connections = max(1, max_connections)
        self._pool = None

    def start(self):
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                self.max_connections, thread_name_prefix="silo-http")

    def stop(self):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self.client.close()

    def submit(self, request, key):
        if self._pool is None:
            raise RuntimeError("transport not started")
        return self._pool.submit(self._post, request)

    def _post(self, request):
        t0 = clock()
        doc, dedup = self.client.submit(request, priority=self.priority)
        return doc["summary"], {"worker": "http:" + dedup,
                                "exec_s": clock() - t0}

    def capacity(self):
        return self.max_connections

    def describe(self):
        return "http:%s:%d" % (self.client.host, self.client.port)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cmd_submit(args):
    from repro.sim.engine import RunRequest
    raw = (sys.stdin.read() if args.file == "-"
           else open(args.file, "r", encoding="utf-8").read())
    request = RunRequest.from_canonical(json.loads(raw))
    client = ServerClient(args.server)
    doc, dedup = client.submit(request, priority=args.priority,
                               wait=not args.no_wait)
    if args.no_wait:
        print(json.dumps(doc, indent=2, default=str))
        return 0
    summary = doc["summary"]
    print(json.dumps({"key": doc["key"], "dedup": dedup,
                      "performance": summary.performance(),
                      "summary": summary.to_dict()},
                     indent=2, default=str))
    return 0


def _cmd_watch(args):
    client = ServerClient(args.server)
    for event, payload in client.watch(key=args.key):
        print("%s %s" % (event, json.dumps(payload, sort_keys=True,
                                           default=str)))
        sys.stdout.flush()
    return 0


def _cmd_health(args):
    client = ServerClient(args.server)
    print(json.dumps(client.health(), indent=2, sort_keys=True))
    return 0


def main(argv=None):
    """CLI entry point: ``python -m repro.serve.client``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.client",
        description="Submit simulation runs to a repro.serve server.")
    parser.add_argument("--server", default="http://127.0.0.1:8421",
                        help="server URL (default "
                             "http://127.0.0.1:8421)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("submit",
                       help="submit one RunRequest.canonical() JSON")
    p.add_argument("file", help="canonical-JSON file ('-' = stdin)")
    p.add_argument("--priority", choices=proto.PRIORITIES,
                   default="interactive")
    p.add_argument("--no-wait", action="store_true",
                   help="return 202 immediately instead of waiting")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("watch", help="stream server events (SSE)")
    p.add_argument("--key", default=None,
                   help="only events for this run key")
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser("health", help="GET /healthz")
    p.set_defaults(func=_cmd_health)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
