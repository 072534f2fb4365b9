"""The asyncio simulation job server.

One :class:`JobServer` fronts one :class:`repro.sim.engine.RunEngine`
and turns simulation traffic into the grid-shaped workload the engine
is good at:

* **in-flight dedup** -- requests are keyed by
  :meth:`RunRequest.key` (canonical JSON + code fingerprint); N
  concurrent identical submissions attach N waiters to *one* job, so
  exactly one simulation runs no matter how the duplicates race in;
* **response memo** -- a finished job's response body, pickled once
  when the job completes, is kept in a bounded in-memory LRU, so a
  duplicate arriving *after* its twin completed is still served
  without touching the engine.  The JSON body is rendered from those
  bytes on its first request and kept beside them; the server only
  ever unpickles bytes it pickled itself, and no entry holds a live
  summary;
* **priority classes** -- ``interactive`` jobs drain completely before
  any ``batch`` job is dispatched;
* **bounded backpressure** -- past ``max_queue_depth`` queued jobs new
  work is refused with ``429`` + ``Retry-After`` instead of growing an
  unbounded queue;
* **streaming** -- the points its own engine resolves (an
  ``engine_span`` and a ``run`` event each, from the server's entry in
  :attr:`RunEngine.listeners`) and job lifecycle transitions are
  broadcast to ``GET /events`` subscribers as Server-Sent Events.

Endpoints: ``POST /runs`` (submit; body per
:func:`repro.serve.proto.parse_run_payload`), ``GET /runs/<key>``
(status / result; 400 unless ``<key>`` passes
:meth:`RunRequest.is_key`), ``GET /events[?key=...]`` (SSE), ``GET
/healthz``, ``GET /metrics`` (Prometheus text).

Threading model: the asyncio loop never simulates.  All engine work
runs on a single dedicated thread (``_engine_pool``), which serializes
engine access (the engine's counters are not thread-safe) while the
engine itself fans out through its transport; results cross back via
``run_in_executor``.  The engine calls the server's listener on the
engine thread; it builds the span and run events only while a
subscriber is connected, and they hop onto the loop with
``call_soon_threadsafe``.
"""

import asyncio
import concurrent.futures
import pickle
from collections import OrderedDict, deque

from repro.obs.telemetry import export_group_prometheus
from repro.serve import proto
from repro.serve.proto import ProtocolError
from repro.sim.engine import RunRequest

DEFAULT_PORT = 8421
#: Dropped oldest-first beyond this many memoized responses.
MEMO_ENTRIES = 1024
#: Seconds :meth:`JobServer.stop` lets a closing connection flush.
STOP_GRACE_S = 1.0


class _JobState:
    """One deduplicated unit of work and everyone waiting on it."""

    __slots__ = ("key", "request", "priority", "future", "waiters",
                 "state")

    def __init__(self, key, request, priority, future):
        self.key = key
        self.request = request
        self.priority = priority
        self.future = future
        self.waiters = 1
        self.state = "queued"


class JobServer:
    """Asyncio front-end over a RunEngine (see module docstring)."""

    def __init__(self, engine, host="127.0.0.1", port=DEFAULT_PORT,
                 max_queue_depth=256, retry_after_s=1.0, max_batch=64,
                 memo_entries=MEMO_ENTRIES):
        self.engine = engine
        self.host = host
        self.port = port
        self.max_queue_depth = max_queue_depth
        self.retry_after_s = retry_after_s
        self.max_batch = max(1, max_batch)
        self.memo_entries = memo_entries
        self._server = None
        self._dispatcher = None
        self._running = False
        self._loop = None
        # Engine access is serialized on this one thread; the engine's
        # transport provides the parallelism underneath it.
        self._engine_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="silo-serve-engine")
        self._inflight = {}                       # key -> _JobState
        self._queues = {"interactive": deque(), "batch": deque()}
        self._wake = asyncio.Event()
        self._memo = OrderedDict()   # key -> {format: response body}
        self._subscribers = set()    # asyncio.Queue per /events client
        self._conns = {}             # open connection's writer -> task
        self.submitted = 0
        self.completed = 0
        self.errors = 0
        self.deduped_inflight = 0
        self.memo_hits = 0
        self.rejected = 0
        self.batches_dispatched = 0

    # -- derived gauges --------------------------------------------------

    def queue_depth(self):
        return sum(len(q) for q in self._queues.values())

    def dedup_ratio(self):
        if not self.submitted:
            return 0.0
        return (self.deduped_inflight + self.memo_hits) \
            / self.submitted

    # -- lifecycle -------------------------------------------------------

    async def start(self):
        """Bind, listen to the engine's resolved points, start the
        dispatcher."""
        self._loop = asyncio.get_running_loop()
        self._running = True
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.engine.listeners.append(self._on_point)
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    async def stop(self):
        """Stop serving: fail the jobs still waiting, close every open
        connection (keep-alive clients' idle ones too) and return once
        each connection's handler has.  From Python 3.12.1
        ``Server.wait_closed`` waits for every connection, so one idle
        client would otherwise hold it open for good; before that, a
        handler left waiting outlives the event loop."""
        self._running = False
        if self._on_point in self.engine.listeners:
            self.engine.listeners.remove(self._on_point)
        if self._dispatcher is not None:
            self._wake.set()
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
        for queue in list(self._subscribers):
            queue.put_nowait(("shutdown", {}))
        for job in list(self._inflight.values()):
            if not job.future.done():
                job.future.set_exception(
                    ConnectionError("server stopped"))
        self._inflight.clear()
        if self._server is not None:
            self._server.close()
            await self._close_connections()
            await self._server.wait_closed()
        for q in self._queues.values():
            q.clear()
        self._engine_pool.shutdown(wait=False)

    async def _close_connections(self):
        """Close every open connection and wait for its handler; a
        handler not done within :data:`STOP_GRACE_S` (its peer does
        not take the last bytes, say) is cancelled and its connection
        aborted."""
        for writer in list(self._conns):
            writer.close()
        if self._conns:
            await asyncio.wait(list(self._conns.values()),
                               timeout=STOP_GRACE_S)
        stuck = list(self._conns.items())
        for writer, task in stuck:
            writer.transport.abort()
            task.cancel()
        if stuck:
            await asyncio.wait([task for _writer, task in stuck])

    @property
    def url(self):
        return "http://%s:%d" % (self.host, self.port)

    # -- streaming -------------------------------------------------------

    def _on_point(self, span, summary):
        """Engine listener, on the engine thread: a resolved point's
        span and run events, built only while anyone subscribes."""
        if self._running and self._subscribers:
            run = {"key": span["key"], "events": summary.driven_events(),
                   "performance": summary.performance()}
            self._loop.call_soon_threadsafe(self._publish, "engine_span",
                                            span)
            self._loop.call_soon_threadsafe(self._publish, "run", run)

    def _publish(self, kind, payload):
        for queue in list(self._subscribers):
            if queue.qsize() < 1024:  # drop on slow consumers
                queue.put_nowait((kind, payload))

    # -- dispatcher ------------------------------------------------------

    def _take_batch(self):
        """Next dispatch batch: all-interactive while any interactive
        job waits, batch-class jobs only once that queue is dry."""
        for priority in proto.PRIORITIES:
            queue = self._queues[priority]
            if queue:
                batch = []
                while queue and len(batch) < self.max_batch:
                    batch.append(queue.popleft())
                return batch
        return []

    async def _dispatch_loop(self):
        while self._running:
            await self._wake.wait()
            self._wake.clear()
            while True:
                batch = self._take_batch()
                if not batch:
                    break
                self.batches_dispatched += 1
                for job in batch:
                    job.state = "running"
                    self._publish("job", {"key": job.key,
                                          "state": "running"})
                for job, (summary, error) in zip(
                        batch, await self._execute(batch)):
                    self._resolve(job, summary=summary, error=error)

    async def _execute(self, batch):
        """``(summary, error)`` per job of ``batch``, from one engine
        run.  When that run fails a batch of several jobs, each job
        runs again alone, so a bad job fails only itself."""
        try:
            summaries = await self._loop.run_in_executor(
                self._engine_pool, self.engine.run,
                [job.request for job in batch])
            return [(summary, None) for summary in summaries]
        except Exception as e:
            if len(batch) == 1:
                return [(None, e)]
        outcomes = []
        for job in batch:
            outcomes.extend(await self._execute([job]))
        return outcomes

    def _resolve(self, job, summary=None, error=None):
        self._inflight.pop(job.key, None)
        if job.future.done():
            return
        if error is not None:
            self.errors += 1
            job.state = "error"
            job.future.set_exception(error)
            self._publish("job", {"key": job.key, "state": "error",
                                  "error": str(error)})
        else:
            self.completed += 1
            job.state = "complete"
            job.future.set_result(self._memo_put(job.key, summary))
            self._publish("job", {"key": job.key,
                                  "state": "complete",
                                  "waiters": job.waiters})

    # -- response memo ---------------------------------------------------

    def _memo_get(self, key):
        entry = self._memo.get(key)
        if entry is not None:
            self._memo.move_to_end(key)
        return entry

    def _memo_put(self, key, summary):
        """Memoize ``summary`` as ``{"pickle": body}``, its complete-job
        response pickled once (a ``"json"`` body joins it on demand, see
        :meth:`_result_response`); drop the oldest past
        ``memo_entries`` and return the entry."""
        entry = self._memo[key] = {"pickle": pickle.dumps(
            {"key": key, "status": "complete", "summary": summary},
            protocol=pickle.HIGHEST_PROTOCOL)}
        self._memo.move_to_end(key)
        while len(self._memo) > self.memo_entries:
            self._memo.popitem(last=False)
        return entry

    def _result_response(self, key, entry, fmt, dedup,
                         keep_alive=True):
        """Render a complete-job response from a memo entry (see
        :meth:`_memo_put`).  The pickle body is the entry's own; the
        JSON body is rendered from it on the first JSON request and
        kept in the entry, so the warm path serializes once per (key,
        format)."""
        body = entry.get(fmt)
        if body is None:
            # Bytes this server pickled in _memo_put: never the
            # network's.
            summary = pickle.loads(entry["pickle"])["summary"]
            body = (proto.json_response(
                200, {"key": key, "status": "complete",
                      "summary": summary.to_dict()})
                .split(b"\r\n\r\n", 1)[1])
            entry[fmt] = body
        ctype = (proto.PICKLE_CONTENT_TYPE if fmt == "pickle"
                 else "application/json")
        return proto.render_response(
            200, body, ctype, extra_headers=(("X-Silo-Dedup", dedup),),
            keep_alive=keep_alive)

    # -- connection handling ---------------------------------------------

    async def _handle_conn(self, reader, writer):
        self._conns[writer] = asyncio.current_task()
        try:
            # A connection accepted while the server stops is closed
            # unread: stop() may already have closed the others.
            while self._running:
                try:
                    request = await proto.read_request(reader)
                except ProtocolError as e:
                    writer.write(proto.error_response(
                        400, str(e), keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                keep = await self._route(request, writer)
                await writer.drain()
                if not keep or not request.keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                self._conns.pop(writer, None)

    async def _route(self, request, writer):
        """Dispatch one request; returns False to close the
        connection."""
        if request.path == "/runs" and request.method == "POST":
            return await self._post_runs(request, writer)
        if request.path == "/healthz" and request.method == "GET":
            writer.write(proto.json_response(200, self.health()))
            return True
        if request.path == "/metrics" and request.method == "GET":
            writer.write(proto.render_response(
                200, self.metrics_text(),
                "text/plain; version=0.0.4"))
            return True
        if request.path == "/events" and request.method == "GET":
            await self._stream_events(request, writer)
            return False
        if request.path.startswith("/runs/") \
                and request.method == "GET":
            return await self._get_run(request, writer)
        if request.path in ("/runs", "/healthz", "/metrics",
                            "/events") \
                or request.path.startswith("/runs/"):
            writer.write(proto.error_response(
                405, "method %s not allowed" % request.method))
            return True
        writer.write(proto.error_response(
            404, "no route for %s" % request.path))
        return True

    def health(self):
        return {
            "ok": True,
            "queue_depth": self.queue_depth(),
            "inflight": len(self._inflight),
            "capacity": self.engine.capacity(),
            "transport": (self.engine.transport.describe()
                          if self.engine.transport is not None
                          else "local"),
            "submitted": self.submitted,
            "completed": self.completed,
        }

    def metrics_text(self):
        """``GET /metrics``: the server's counters, then the engine's
        snapshot less its flight recorder, as Prometheus text."""
        serve = {
            "submitted": self.submitted,
            "completed": self.completed,
            "errors": self.errors,
            "deduped_inflight": self.deduped_inflight,
            "memo_hits": self.memo_hits,
            "rejected": self.rejected,
            "batches_dispatched": self.batches_dispatched,
            "queue_depth": self.queue_depth(),
            "inflight": len(self._inflight),
            "dedup_ratio": self.dedup_ratio(),
            "capacity": self.engine.capacity(),
        }
        engine = self.engine.snapshot()
        del engine["flight_recorder"]
        return (export_group_prometheus(serve, "serve")
                + export_group_prometheus(engine, "engine"))

    async def _post_runs(self, request, writer):
        try:
            run_request, priority, wait, fmt = proto.parse_run_payload(
                request.json())
        except ProtocolError as e:
            writer.write(proto.error_response(400, str(e)))
            return True
        key = run_request.key(self.engine.fingerprint)
        self.submitted += 1

        entry = self._memo_get(key)
        if entry is not None:
            self.memo_hits += 1
            writer.write(self._result_response(key, entry, fmt,
                                               "memo"))
            return True

        job = self._inflight.get(key)
        if job is not None:
            self.deduped_inflight += 1
            job.waiters += 1
            dedup = "inflight"
        else:
            if self.queue_depth() >= self.max_queue_depth:
                self.rejected += 1
                writer.write(proto.error_response(
                    429, "queue full (%d jobs)" % self.queue_depth(),
                    extra_headers=(
                        ("Retry-After", "%g" % self.retry_after_s),)))
                return True
            job = _JobState(key, run_request, priority,
                            self._loop.create_future())
            self._inflight[key] = job
            self._queues[priority].append(job)
            self._wake.set()
            self._publish("job", {"key": key, "state": "queued",
                                  "priority": priority})
            dedup = "none"

        if not wait:
            writer.write(proto.json_response(
                202, {"key": key, "status": job.state,
                      "dedup": dedup}))
            return True
        try:
            # Shield the shared future: one waiter disconnecting must
            # not cancel the job out from under its twins.  Its result
            # is the job's memo entry, which a memo smaller than the
            # batch may have evicted before this waiter resumed.
            entry = await asyncio.shield(job.future)
        except asyncio.CancelledError:
            raise
        except Exception as e:
            writer.write(proto.error_response(
                500, "run failed: %s" % e))
            return True
        writer.write(self._result_response(key, entry, fmt, dedup))
        return True

    async def _get_run(self, request, writer):
        key = request.path[len("/runs/"):]
        if not RunRequest.is_key(key):
            # Checked before the key names a memo entry or a cache
            # path: "../x" must never reach RunCache.get's open().
            writer.write(proto.error_response(
                400, "malformed run key %r" % key[:80]))
            return True
        fmt = request.query.get("format", "json")
        if fmt not in proto.FORMATS:
            writer.write(proto.error_response(
                400, "format must be one of %s" % (proto.FORMATS,)))
            return True
        entry = self._memo_get(key)
        if entry is not None:
            writer.write(self._result_response(key, entry, fmt,
                                               "memo"))
            return True
        job = self._inflight.get(key)
        if job is not None:
            writer.write(proto.json_response(
                200, {"key": key, "status": job.state,
                      "waiters": job.waiters,
                      "priority": job.priority}))
            return True
        if self.engine.cache is not None:
            summary = await self._loop.run_in_executor(
                None, self.engine.cache.get, key)
            if summary is not None:
                writer.write(self._result_response(
                    key, self._memo_put(key, summary), fmt, "cache"))
                return True
        writer.write(proto.error_response(
            404, "unknown run %s" % key))
        return True

    async def _stream_events(self, request, writer):
        """SSE: stream job / run / engine_span events until the client
        goes away (optionally filtered to one run key)."""
        key_filter = request.query.get("key")
        queue = asyncio.Queue()
        self._subscribers.add(queue)
        writer.write(proto.sse_preamble())
        try:
            await writer.drain()
            writer.write(proto.sse_event("hello",
                                         {"server": self.url}))
            while self._running:
                kind, payload = await queue.get()
                if kind == "shutdown":
                    break
                if key_filter and payload.get("key") != key_filter:
                    continue
                writer.write(proto.sse_event(kind, payload))
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self._subscribers.discard(queue)


async def run_server(server, ready=None):
    """Start ``server`` and serve until cancelled (SIGINT/SIGTERM in
    ``__main__``); ``ready(server)`` fires once the port is bound."""
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await asyncio.Event().wait()     # serve until cancelled
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
