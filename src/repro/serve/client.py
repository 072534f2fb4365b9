"""Thin client for the simulation job server.

Three layers:

* :class:`ServerClient` -- a synchronous stdlib (``http.client``)
  wrapper over the server's endpoints: submit a
  :class:`~repro.sim.engine.RunRequest`, poll a key, stream SSE
  events, scrape health/metrics.  Summaries default to the pickle
  wire format (trusted in-repo server; see ``repro.serve.proto``) so
  a round-trip returns the same ``RunSummary`` object a local engine
  would have;
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
import http.client
import json
import pickle
import sys

from repro.obs.profile import clock
from repro.serve import proto


class ServerError(Exception):
    """Non-2xx response from the job server."""

    def __init__(self, status, message):
        super().__init__("HTTP %d: %s" % (status, message))
        self.status = status


def _parse_url(url):
    """``http://host:port`` -> (host, port)."""
    rest = url.split("://", 1)[-1].rstrip("/")
    host, _, port = rest.partition(":")
    return host or "127.0.0.1", int(port) if port else 80


class ServerClient:
    """Synchronous HTTP client for one job server."""

    def __init__(self, url, timeout=600.0):
        self.url = url.rstrip("/")
        self.host, self.port = _parse_url(url)
        self.timeout = timeout

    def _request(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            headers = {}
            if body is not None:
                body = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
            ctype = resp.getheader("Content-Type", "")
            dedup = resp.getheader("X-Silo-Dedup", "none")
            if resp.status >= 400:
                try:
                    message = json.loads(payload)["error"]
                except (ValueError, KeyError, TypeError):
                    message = payload.decode("utf-8", "replace")
                err = ServerError(resp.status, message)
                err.retry_after = resp.getheader("Retry-After")
                raise err
            if ctype.startswith(proto.PICKLE_CONTENT_TYPE):
                return pickle.loads(payload), dedup
            if ctype.startswith("application/json"):
                return json.loads(payload), dedup
            return payload.decode("utf-8"), dedup
        finally:
            conn.close()

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
        terminates when the server closes the connection."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            path = "/events" + ("?key=%s" % key if key else "")
            conn.request("GET", path)
            resp = conn.getresponse()
            event = None
            while True:
                raw = resp.readline()
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
