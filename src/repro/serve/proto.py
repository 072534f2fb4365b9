"""Wire formats of the job server: HTTP/1.1, SSE and run codecs.

Three small protocols live here so the server and the client speak
from one module:

* a **minimal HTTP/1.1 layer** -- request-line + headers +
  Content-Length body parsing over asyncio streams, keep-alive, and
  request and response rendering.  One header parser
  (:func:`parse_head`) reads both directions: requests on the server,
  responses in :mod:`repro.serve.client`.  No routing framework, no
  chunked encoding, no TLS: the server fronts simulation traffic on a
  LAN, and everything it needs fits in ~100 lines of stdlib;
* **Server-Sent Events** rendering for the progress streams
  (``event:``/``data:`` lines per the WhatWG EventSource format);
* **run codecs**: the JSON shapes of a submitted run
  (:func:`parse_run_payload` -> :class:`repro.sim.engine.RunRequest`
  via ``from_canonical``) and of a finished summary
  (:func:`summary_from_wire`, dispatching estimate-mode summaries back
  to :class:`repro.analytic.estimator.EstimateSummary`).

Trust boundary: the server *accepts* only JSON and never unpickles
anything it reads from the network.  A submitter may only *request* a
pickled response for itself (``format: "pickle"``), which is the fast
path the in-repo client uses.
"""

import asyncio
import json
from dataclasses import dataclass, field

from repro.sim.engine import RunRequest, RunSummary

#: Hard ceiling on HTTP bodies (a fig-scale RunSummary is ~100 KB;
#: 64 MB leaves room for huge colocation grids while bounding a
#: malicious or corrupt Content-Length).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Most header lines one message head may carry.
MAX_HEADERS = 256

#: Longest start or header line the client reads: asyncio's default
#: stream limit (64 KiB), which bounds the server's own reads.
MAX_LINE_BYTES = 64 * 1024

#: Request priority classes, highest first (the server drains
#: ``interactive`` completely before touching ``batch``).
PRIORITIES = ("interactive", "batch")

#: Summary wire formats a submitter may ask for.
FORMATS = ("json", "pickle")

PICKLE_CONTENT_TYPE = "application/x-silo-pickle"

_REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """Malformed HTTP or run input (the server answers 400)."""


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self):
        return self.headers.get("connection", "").lower() != "close"

    def json(self):
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ProtocolError("invalid JSON body: %s" % e) from None


# ---------------------------------------------------------------------------
# HTTP parsing / rendering
# ---------------------------------------------------------------------------


def _parse_target(target):
    """Split a request target into (path, query dict)."""
    path, _, raw_query = target.partition("?")
    query = {}
    if raw_query:
        for pair in raw_query.split("&"):
            if not pair:
                continue
            name, _, value = pair.partition("=")
            query[name] = value
    return path, query


async def _readline(reader):
    try:
        return await reader.readline()
    except ValueError:
        # asyncio's StreamReader limit (64 KiB by default) overran.
        raise ProtocolError("request line or header too long") from None


async def read_request(reader):
    """Parse one HTTP/1.1 request from an asyncio stream.

    Returns None on a clean EOF (client closed between requests);
    raises :class:`ProtocolError` on malformed input, including a body
    shorter than its ``Content-Length``.
    """
    line = await _readline(reader)
    if not line:
        return None
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError:
        raise ProtocolError("malformed request line %r" % line) from None
    if not version.startswith("HTTP/1."):
        raise ProtocolError("unsupported HTTP version %r" % version)
    lines = []
    while True:
        raw = await _readline(reader)
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise ProtocolError("EOF inside headers")
        lines.append(raw)
        if len(lines) > MAX_HEADERS:
            raise ProtocolError("too many headers")
    headers, length = parse_head(lines)
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as e:
            raise ProtocolError("body truncated: got %d of %d bytes"
                                % (len(e.partial), length)) from None
    path, query = _parse_target(target)
    return Request(method=method.upper(), path=path, query=query,
                   headers=headers, body=body)


def parse_head(lines):
    """The headers and body length of one HTTP/1.x message head.

    ``lines`` are the head's raw header lines: bytes, after the start
    line, without the blank line that ends the head.  Returns
    ``(headers, length)``: names lowercased and values stripped, and
    ``Content-Length`` as an int in ``[0, MAX_BODY_BYTES]``, or None
    when the head has none.  Raises :class:`ProtocolError` on a length
    that is not such an int.  :func:`read_request` parses a request's
    head with it, and the client a response's.
    """
    headers = {}
    for raw in lines:
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length")
    if length is None:
        return headers, None
    try:
        length = int(length)
    except ValueError:
        raise ProtocolError("bad Content-Length %r" % length[:40]) from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError("body of %d bytes out of range" % length)
    return headers, length


def render_request(method, target, host, body=None):
    """Render a full HTTP/1.1 request as bytes, head and JSON body
    together, so one ``sendall`` sends it."""
    head = "%s %s HTTP/1.1\r\nHost: %s\r\n" % (method, target, host)
    if body is None:
        return (head + "\r\n").encode("latin-1")
    return (head + "Content-Type: application/json\r\n"
            "Content-Length: %d\r\n\r\n" % len(body)
            ).encode("latin-1") + body


def render_response(status, body=b"", content_type="application/json",
                    extra_headers=(), keep_alive=True):
    """Render a full HTTP/1.1 response as bytes."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        "HTTP/1.1 %d %s" % (status, reason),
        "Content-Type: %s" % content_type,
        "Content-Length: %d" % len(body),
        "Connection: %s" % ("keep-alive" if keep_alive else "close"),
    ]
    for name, value in extra_headers:
        lines.append("%s: %s" % (name, value))
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_response(status, payload, extra_headers=(), keep_alive=True):
    """Render ``payload`` as a JSON response (sorted keys)."""
    body = json.dumps(payload, sort_keys=True, default=str) + "\n"
    return render_response(status, body, "application/json",
                           extra_headers, keep_alive)


def error_response(status, message, extra_headers=(), keep_alive=True):
    """Render an error as ``{"error": message}`` JSON."""
    return json_response(status, {"error": message}, extra_headers,
                         keep_alive)


# ---------------------------------------------------------------------------
# Server-Sent Events
# ---------------------------------------------------------------------------


def sse_preamble(keep_alive=False):
    """Response head opening an SSE stream (no Content-Length: the
    stream ends when the connection closes)."""
    return ("HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: %s\r\n\r\n"
            % ("keep-alive" if keep_alive else "close")
            ).encode("latin-1")


def sse_event(kind, payload):
    """One SSE frame: ``event: <kind>`` + JSON ``data:`` line."""
    data = json.dumps(payload, sort_keys=True, default=str)
    return ("event: %s\ndata: %s\n\n" % (kind, data)).encode("utf-8")


# ---------------------------------------------------------------------------
# run codecs
# ---------------------------------------------------------------------------


def parse_run_payload(body_json):
    """Validate a ``POST /runs`` JSON document.

    Shape: ``{"request": <RunRequest.canonical()>, "priority":
    "interactive"|"batch", "wait": bool, "format": "json"|"pickle"}``.
    Returns ``(RunRequest, priority, wait, fmt)``; raises
    :class:`ProtocolError` with a client-facing message on anything
    malformed.
    """
    if not isinstance(body_json, dict):
        raise ProtocolError("body must be a JSON object")
    canonical = body_json.get("request")
    if not isinstance(canonical, dict):
        raise ProtocolError('missing "request" object '
                            "(RunRequest.canonical() form)")
    try:
        request = RunRequest.from_canonical(canonical)
    except (KeyError, TypeError, ValueError) as e:
        raise ProtocolError("invalid run request: %s" % e) from None
    priority = body_json.get("priority", "batch")
    if priority not in PRIORITIES:
        raise ProtocolError("priority must be one of %s"
                            % (PRIORITIES,))
    wait = body_json.get("wait", True)
    if not isinstance(wait, bool):
        raise ProtocolError('"wait" must be a boolean')
    fmt = body_json.get("format", "json")
    if fmt not in FORMATS:
        raise ProtocolError("format must be one of %s" % (FORMATS,))
    return request, priority, wait, fmt


def summary_from_wire(data):
    """Rebuild a summary from its ``to_dict`` JSON form, restoring the
    estimate-mode subclass when the record carries one."""
    if data.get("mode") == "estimate":
        from repro.analytic.estimator import EstimateSummary
        from repro.sim.engine import CoreSummary
        data = dict(data)
        data["cores"] = [CoreSummary(**c) for c in data["cores"]]
        if data.get("sharing") is not None:
            data["sharing"] = tuple(data["sharing"])
        return EstimateSummary(**data)
    return RunSummary.from_dict(data)
