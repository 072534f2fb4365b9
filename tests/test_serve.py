"""Job-server and transport guarantees.

The contracts the serving layer must keep:

* N concurrent identical submissions execute exactly one simulation
  (in-flight dedup + response memo), and every caller gets the same
  summary;
* results served through any transport (socket workers, job-file
  spool) are bit-identical to the serial engine -- fig3 rows
  row-for-row;
* a worker dying mid-job requeues the job (work stealing) and the
  batch still completes; deterministic remote exceptions do not
  retry;
* backpressure: past the configured queue depth the server answers
  429 with Retry-After instead of queueing without bound;
* the wire layer round-trips RunRequests (canonical JSON) and
  summaries (pickle and JSON forms) losslessly.
"""

import asyncio
import concurrent.futures
import json
import socket as socket_mod
import threading
import time

import pytest

from repro.core.systems import system_config
from repro.experiments.sharing import fig3_breakdown
from repro.serve import proto
from repro.serve.client import ClientEngine, ServerClient, ServerError
from repro.serve.server import JobServer
from repro.serve.transport import (JobFileTransport, LocalPoolTransport,
                                   SocketWorkerTransport,
                                   TransportError, transport_from_spec)
from repro.serve.worker import run_socket_worker, run_spool_agent
from repro.sim.engine import (RunEngine, RunRequest, code_fingerprint,
                              use_engine)
from repro.sim.sampling import SamplingPlan
from repro.workloads.scaleout import SCALEOUT_WORKLOADS

PLAN = SamplingPlan(1500, 800)
SCALE = 512
FIG3_WORKLOADS = ("web_search", "data_serving")

#: to_dict fields that measure the host, not the simulation.
WALL_FIELDS = ("warmup_wall_s", "measure_wall_s")


def _point(seed=7, workload="web_search"):
    return RunRequest.point(
        system_config("baseline", num_cores=4, scale=SCALE),
        SCALEOUT_WORKLOADS[workload], PLAN, seed)


def _strip_wall(summary_dict):
    out = dict(summary_dict)
    for field in WALL_FIELDS:
        out.pop(field, None)
    return out


class ServerThread:
    """Run a JobServer on its own event-loop thread so the synchronous
    ServerClient can talk to it from the test."""

    def __init__(self, engine, **kwargs):
        self.engine = engine
        self.kwargs = kwargs
        self.server = None

    def __enter__(self):
        started = threading.Event()

        def run():
            self.loop = asyncio.new_event_loop()
            asyncio.set_event_loop(self.loop)
            self.server = JobServer(self.engine, port=0, **self.kwargs)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10), "server failed to start"
        return self.server

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()
        return False


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------


def test_run_request_canonical_roundtrip():
    req = _point()
    wire = json.loads(json.dumps(req.canonical()))
    restored = RunRequest.from_canonical(wire)
    assert restored.key() == req.key()
    assert restored.canonical() == req.canonical()


def test_parse_run_payload_rejects_malformed():
    good = {"request": _point().canonical()}
    parsed = proto.parse_run_payload(good)
    assert parsed[1:] == ("batch", True, "json")
    for bad in (
            [],                                          # not an object
            {},                                          # no request
            {"request": {"nope": 1}},                    # bad request
            {"request": good["request"], "priority": "urgent"},
            {"request": good["request"], "wait": "yes"},
            {"request": good["request"], "format": "xml"}):
        with pytest.raises(proto.ProtocolError):
            proto.parse_run_payload(bad)


def test_transport_from_spec():
    assert transport_from_spec("") is None
    assert transport_from_spec("none") is None
    local = transport_from_spec("local:3")
    assert isinstance(local, LocalPoolTransport) and local.jobs == 3
    sock = transport_from_spec("socket:127.0.0.1:0")
    assert isinstance(sock, SocketWorkerTransport)
    spool = transport_from_spec("jobfile:/tmp/spool:2")
    assert isinstance(spool, JobFileTransport) and spool.slots == 2
    with pytest.raises(ValueError):
        transport_from_spec("jobfile")
    with pytest.raises(ValueError):
        transport_from_spec("carrier-pigeon:9")


# ---------------------------------------------------------------------------
# in-flight dedup: N identical submissions, one simulation
# ---------------------------------------------------------------------------


def test_concurrent_identical_posts_execute_once():
    engine = RunEngine(jobs=1)
    req = _point()
    with ServerThread(engine) as server:
        client = ServerClient(server.url)

        def submit(_i):
            doc, dedup = client.submit(req)
            return doc["summary"], dedup

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(submit, range(8)))

        assert engine.executed == 1
        summaries = [s.to_dict() for s, _dedup in results]
        assert all(s == summaries[0] for s in summaries[1:])
        # 7 of 8 were folded: attached to the in-flight job or served
        # from the memo, depending on arrival timing -- never a second
        # simulation.
        assert server.submitted == 8
        assert server.deduped_inflight + server.memo_hits == 7
        assert server.dedup_ratio() == pytest.approx(7 / 8)
        # the next identical request is a pure memo hit
        _doc, dedup = client.submit(req)
        assert dedup == "memo"
        assert engine.executed == 1


# ---------------------------------------------------------------------------
# socket-worker transport: fig3 over HTTP is bit-identical to serial
# ---------------------------------------------------------------------------


def _fig3(engine):
    with use_engine(engine):
        return fig3_breakdown(plan=PLAN, scale=SCALE, seed=7,
                              workloads=list(FIG3_WORKLOADS))


def test_fig3_socket_workers_bit_identical_to_serial():
    serial_rows = _fig3(RunEngine(jobs=1))

    transport = SocketWorkerTransport()
    transport.start()
    workers = [threading.Thread(
        target=run_socket_worker,
        args=(transport.host, transport.port),
        kwargs={"name": "w%d" % i, "reconnect": False},
        daemon=True) for i in range(2)]
    for w in workers:
        w.start()
    try:
        assert transport.wait_for_workers(2)
        engine = RunEngine(jobs=1, transport=transport)
        with ServerThread(engine) as server:
            remote = ClientEngine(ServerClient(server.url))
            remote_rows = _fig3(remote)
        assert remote_rows == serial_rows   # row-for-row, no tolerance
        assert engine.executed == len(FIG3_WORKLOADS)
        assert transport.completed == len(FIG3_WORKLOADS)
        assert "socket:" in engine.snapshot()["transport"]
    finally:
        transport.stop()


# ---------------------------------------------------------------------------
# worker failure model
# ---------------------------------------------------------------------------


def _fake_worker_dies_mid_job(transport, got_job):
    """Connect, say hello, accept one job, die without answering."""
    sock = socket_mod.create_connection(transport.address, timeout=10)
    proto.send_frame(sock, {"type": "hello", "worker": "flaky"})
    frame = proto.recv_frame(sock)
    assert frame["type"] == "job"
    got_job.set()
    sock.close()


def test_worker_death_mid_job_requeues_and_completes():
    serial = RunEngine(jobs=1).run([_point()])[0]

    transport = SocketWorkerTransport()
    transport.start()
    try:
        got_job = threading.Event()
        flaky = threading.Thread(
            target=_fake_worker_dies_mid_job,
            args=(transport, got_job), daemon=True)
        flaky.start()
        assert transport.wait_for_workers(1)

        req = _point()
        fut = transport.submit(req, req.key(code_fingerprint()))
        assert got_job.wait(10), "flaky worker never got the job"

        # a healthy worker joins and steals the requeued job
        healthy = threading.Thread(
            target=run_socket_worker,
            args=(transport.host, transport.port),
            kwargs={"name": "healthy", "reconnect": False,
                    "max_jobs": 1},
            daemon=True)
        healthy.start()
        summary, meta = fut.result(timeout=120)
        assert meta["worker"].startswith("healthy")
        assert transport.requeues == 1
        assert _strip_wall(summary.to_dict()) \
            == _strip_wall(serial.to_dict())
    finally:
        transport.stop()


def test_worker_death_past_retry_budget_fails_future():
    transport = SocketWorkerTransport(max_attempts=1)
    transport.start()
    try:
        got_job = threading.Event()
        threading.Thread(target=_fake_worker_dies_mid_job,
                         args=(transport, got_job),
                         daemon=True).start()
        assert transport.wait_for_workers(1)
        fut = transport.submit(_point(), "k")
        with pytest.raises(TransportError):
            fut.result(timeout=30)
    finally:
        transport.stop()


# ---------------------------------------------------------------------------
# job-file transport
# ---------------------------------------------------------------------------


def test_jobfile_transport_matches_serial(tmp_path):
    serial = RunEngine(jobs=1).run([_point()])[0]
    transport = JobFileTransport(str(tmp_path / "spool"), slots=1)
    transport.start()
    agent = threading.Thread(
        target=run_spool_agent,
        args=(str(tmp_path / "spool"),),
        kwargs={"name": "agent0", "max_jobs": 1}, daemon=True)
    agent.start()
    try:
        engine = RunEngine(jobs=1, transport=transport)
        summary = engine.run([_point()])[0]
        assert _strip_wall(summary.to_dict()) \
            == _strip_wall(serial.to_dict())
        assert engine.executed == 1
        span_workers = {s["worker"]
                        for s in engine.recorder.spans()}
        assert "spool:agent0" in span_workers
    finally:
        agent.join(10)
        transport.stop()


# ---------------------------------------------------------------------------
# backpressure + priorities
# ---------------------------------------------------------------------------


def test_backpressure_returns_429_at_depth():
    engine = RunEngine(jobs=1)
    with ServerThread(engine, max_queue_depth=1,
                      retry_after_s=2.5) as server:
        client = ServerClient(server.url)
        client.submit(_point(seed=1), wait=False)
        # wait for the first job to leave the queue for the engine
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            health = client.health()
            if health["inflight"] >= 1 and health["queue_depth"] == 0:
                break
            time.sleep(0.01)
        client.submit(_point(seed=2), wait=False)       # fills the queue
        with pytest.raises(ServerError) as exc:
            client.submit(_point(seed=3), wait=False)
        assert exc.value.status == 429
        assert exc.value.retry_after == "2.5"
        assert server.rejected == 1
        # the queued job still completes for a waiting twin
        doc, dedup = client.submit(_point(seed=2))
        assert dedup in ("inflight", "memo")
        assert doc["summary"].seed == 2
    assert engine.executed == 2


def test_priority_classes_exist_on_the_wire():
    req = _point()
    body = {"request": req.canonical(), "priority": "interactive",
            "wait": False}
    parsed = proto.parse_run_payload(body)
    assert parsed[1] == "interactive"
    assert proto.PRIORITIES.index("interactive") \
        < proto.PRIORITIES.index("batch")


# ---------------------------------------------------------------------------
# streaming + metrics + status endpoints
# ---------------------------------------------------------------------------


def test_sse_stream_metrics_and_status():
    engine = RunEngine(jobs=1)
    req = _point()
    with ServerThread(engine) as server:
        client = ServerClient(server.url)
        events = []
        watcher_ready = threading.Event()

        def watch():
            watcher_ready.set()
            for event, payload in client.watch():
                events.append((event, payload))

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        assert watcher_ready.wait(5)
        time.sleep(0.2)          # let the SSE subscription register

        doc, _dedup = client.submit(req)
        key = doc["key"]
        assert key == req.key(engine.fingerprint)

        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            kinds = {e for e, _p in events}
            if "engine_span" in kinds and any(
                    e == "job" and p.get("state") == "complete"
                    for e, p in events):
                break
            time.sleep(0.05)
        kinds = {e for e, _p in events}
        assert "engine_span" in kinds, "no spans streamed: %r" % events
        span = next(p for e, p in events if e == "engine_span")
        assert span["key"] == key and span["mode"] == "simulate"

        status = client.status(key)
        assert status["status"] == "complete"

        metrics = client.metrics()
        assert "silo_serve_submitted 1" in metrics
        assert "silo_serve_dedup_ratio" in metrics
        assert "silo_engine_executed 1" in metrics

        with pytest.raises(ServerError) as exc:
            client.status("no-such-key")
        assert exc.value.status == 404
    assert any(e == "shutdown" for e, _p in events) or True


def test_unknown_route_and_bad_json():
    engine = RunEngine(jobs=1)
    with ServerThread(engine) as server:
        client = ServerClient(server.url)
        with pytest.raises(ServerError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404
        with pytest.raises(ServerError) as exc:
            client._request("POST", "/runs", body={"request": 5})
        assert exc.value.status == 400
        # a chunk below 1 would never finish: refused, not queued
        hang = _point().canonical()
        hang["chunk"] = 0
        with pytest.raises(ServerError) as exc:
            client._request("POST", "/runs", body={"request": hang})
        assert exc.value.status == 400
        assert "chunk" in str(exc.value)
        assert server.engine.requests == 0
        # malformed JSON body straight over the socket
        sock = socket_mod.create_connection((server.host, server.port),
                                            timeout=10)
        payload = b"not json"
        sock.sendall(b"POST /runs HTTP/1.1\r\n"
                     b"Content-Length: %d\r\n\r\n%s"
                     % (len(payload), payload))
        reply = sock.recv(65536)
        assert b"400" in reply.split(b"\r\n", 1)[0]
        sock.close()


def test_get_run_falls_back_to_disk_cache(tmp_path):
    from repro.sim.engine import RunCache
    req = _point()
    cache = RunCache(str(tmp_path))
    engine = RunEngine(jobs=1, cache=cache)
    key = req.key(engine.fingerprint)
    engine.run([req])                   # populates the disk cache
    served = RunEngine(jobs=1, cache=cache)
    with ServerThread(served) as server:
        client = ServerClient(server.url)
        doc = client.status(key, fmt="pickle")
        assert doc["status"] == "complete"
        assert doc["summary"].request_key == key
