"""Job-server and transport guarantees.

The contracts the serving layer must keep:

* N concurrent identical submissions execute exactly one simulation
  (in-flight dedup + response memo), and every caller gets the same
  summary;
* results served through any transport (the local pool, HTTP) are
  bit-identical to the serial engine -- fig3 rows row-for-row, and
  ``--server`` against a real server process posts each distinct
  point once and records it like a local run (``tests/test_oracle.py``
  checks served summaries against serial ones on random requests);
* backpressure: past the configured queue depth the server answers
  429 with Retry-After instead of queueing without bound; an oversized
  request head or a truncated body gets 400, not a dropped connection;
* one job that fails fails only itself, not the jobs dispatched with
  it, and an SSE client that leaves is dropped;
* the response memo holds rendered bytes, never a live summary: a
  JSON body rendered from a memoized pickle body is the one the
  summary itself renders to, and a waiter whose entry a memo smaller
  than its batch evicted is still answered;
* stopping the server closes every connection, keep-alive clients'
  idle ones included, and leaves no handler behind its event loop;
  a local pool's workers hold none of the server's sockets;
* hostile input fails locally: a run key that is not a sha256 digest
  gets 400 before it can name a cache path, and bad ``python -m
  repro.serve`` settings are usage errors;
* the wire layer round-trips RunRequests (canonical JSON) and
  summaries (pickle and JSON forms) losslessly.
"""

import asyncio
import concurrent.futures
import gc
import json
import os
import pickle
import select
import socket as socket_mod
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.systems import system_config
from repro.experiments.cli import main as experiments_main
from repro.experiments.sharing import fig3_breakdown
from repro.faults import FaultPlan
from repro.obs.session import observe
from repro.serve import __main__ as serve_cli
from repro.serve import proto
from repro.serve.client import HttpTransport, ServerClient, ServerError
from repro.serve.server import JobServer
from repro.sim.engine import (LocalPoolTransport, RunCache, RunEngine,
                              RunRequest, use_engine)
from repro.sim.sampling import PRESETS, SamplingPlan
from repro.sim.summary import RunSummary
from repro.workloads.scaleout import SCALEOUT_WORKLOADS
from tests.test_engine import HOSTILE_EDITS, hostile_body

#: An exception raised where nothing can catch it (a connection
#: handler finishing after its event loop closed, say) fails the test.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning")

PLAN = SamplingPlan(1500, 800)
SCALE = 512
FIG3_WORKLOADS = tuple(SCALEOUT_WORKLOADS)

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


def test_a_16_core_estimate_response_stays_small():
    """The pickled response document a 16-core Fig. 10 estimate is
    served as -- what every warm request moves -- carries one latency
    histogram per service level, not one per core and level (with
    those it pickled to about 16 KB)."""
    req = RunRequest.point(
        system_config("silo", num_cores=16, scale=256),
        SCALEOUT_WORKLOADS["web_search"], PRESETS["quick"], 7,
        mode="estimate")
    body = json.dumps({"request": req.canonical(),
                       "format": "pickle"}).encode("utf-8")
    with ServerThread(RunEngine(jobs=1)) as server:
        with ServerClient(server.url) as client:
            status, _headers, payload = client._exchange(
                proto.render_request("POST", "/runs", "%s:%d" % (
                    client.host, client.port), body))
    assert status == 200
    doc = pickle.loads(payload)
    assert doc["summary"].core_ids == list(range(16))
    assert len(payload) < 9000


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
    assert serve_cli.transport_from_spec("") is None
    assert serve_cli.transport_from_spec("none") is None
    for spec, jobs in (("local", 2), ("local:1", 1), ("local:3", 3)):
        local = serve_cli.transport_from_spec(spec)
        assert isinstance(local, LocalPoolTransport) and local.jobs == jobs


@pytest.mark.parametrize("flag,value", [
    ("--transport", "local:x"),
    ("--transport", "local:"),
    ("--transport", "local:0"),
    ("--transport", "local:-3"),
    ("--transport", "bogus"),
    ("--transport", "socket:127.0.0.1:0"),
    ("--max-queue-depth", "0"),
    ("--max-queue-depth", "-1"),
    ("--max-queue-depth", "many"),
    ("--max-batch", "0"),
    ("--max-batch", "-2"),
    ("--retry-after", "-1"),
    ("--retry-after", "nan"),
    ("--retry-after", "inf"),
    ("--cache-max-bytes", "-1"),
    ("--cache-max-bytes", "5x"),
])
def test_serve_cli_refuses_bad_settings(flag, value, capsys, monkeypatch):
    async def serve(_server, ready=None):
        raise AssertionError("bad settings reached the server")

    monkeypatch.setattr(serve_cli, "run_server", serve)
    with pytest.raises(SystemExit) as exc:
        serve_cli.main([flag, value, "--port", "0", "--no-cache"])
    assert exc.value.code == 2
    assert "usage: python -m repro.serve" in capsys.readouterr().err


def test_serve_cli_refuses_a_malformed_cache_cap_variable(capsys,
                                                          monkeypatch):
    async def serve(_server, ready=None):
        raise AssertionError("bad settings reached the server")

    monkeypatch.setattr(serve_cli, "run_server", serve)
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-5")
    with pytest.raises(SystemExit) as exc:
        serve_cli.main(["--port", "0", "--no-cache"])
    assert exc.value.code == 2
    assert "REPRO_CACHE_MAX_BYTES" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# in-flight dedup: N identical submissions, one simulation
# ---------------------------------------------------------------------------


def test_concurrent_identical_posts_execute_once():
    engine = RunEngine(jobs=1)
    req = _point()
    with ServerThread(engine) as server:
        with ServerClient(server.url) as client:

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


def test_stop_closes_idle_keep_alive_connections(monkeypatch):
    # A keep-alive client leaves its connection open and idle.  From
    # Python 3.12.1 Server.wait_closed waits for every connection, so
    # stop() must close it, and every connection handler must be done
    # before the event loop closes.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    engine = RunEngine(jobs=1)
    thread = ServerThread(engine)
    server = thread.__enter__()
    clients = [ServerClient(server.url) for _ in range(3)]
    try:
        for client in clients:
            assert client.health()["ok"]
        assert len(server._conns) == 3
        t0 = time.monotonic()
        thread.__exit__(None, None, None)
        assert time.monotonic() - t0 < 2.0
        assert not server._conns
        gc.collect()
        assert unraisable == []
        # the server closed the idle connection: the client's one
        # retry finds nothing listening
        with pytest.raises(ConnectionRefusedError):
            clients[0].health()
    finally:
        for client in clients:
            client.close()


# ---------------------------------------------------------------------------
# local-pool transport: fig3 over HTTP is bit-identical to serial
# ---------------------------------------------------------------------------


def _fig3(engine):
    with use_engine(engine):
        return fig3_breakdown(plan=PLAN, scale=SCALE, seed=7,
                              workloads=list(FIG3_WORKLOADS))


def test_fig3_server_local_pool_bit_identical_to_serial():
    serial_rows = _fig3(RunEngine(jobs=1))

    pool = LocalPoolTransport(2)
    pool.start()
    try:
        engine = RunEngine(jobs=1, transport=pool)
        with ServerThread(engine) as server:
            http = HttpTransport(server.url)
            remote = RunEngine(jobs=1, cache=None, transport=http)
            try:
                remote_rows = _fig3(remote)
            finally:
                http.stop()
            transport = server.health()["transport"]
        assert remote_rows == serial_rows   # row-for-row, no tolerance
        assert engine.executed == len(FIG3_WORKLOADS) == 5
        assert transport == "local-pool:2"
        assert remote.snapshot()["transport"].startswith("http:")
    finally:
        pool.stop()


def test_pool_workers_do_not_hold_the_server_socket():
    # A pool started before the server forks its workers in start(),
    # so none inherits the listening socket: once the server stops,
    # its port refuses connections instead of accepting them into a
    # worker that never answers.
    pool = LocalPoolTransport(2)
    pool.start()
    try:
        with ServerThread(RunEngine(jobs=1, transport=pool)) as server:
            with ServerClient(server.url) as client:
                assert client.run(_point()).seed == 7
                port = server.port
        with pytest.raises(ConnectionRefusedError):
            socket_mod.create_connection(("127.0.0.1", port),
                                         timeout=2).close()
    finally:
        pool.stop()


def test_worker_utilization_counts_transport_capacity():
    # A two-process pool behind a jobs=1 engine: busy seconds are
    # divided by the transport's two workers, not by jobs.
    pool = LocalPoolTransport(2)
    pool.start()
    try:
        engine = RunEngine(jobs=1, transport=pool)
        engine.run([_point(seed=s) for s in range(1, 5)])
        assert engine.capacity() == 2
        snap = engine.snapshot()
        assert 0.0 < snap["worker_utilization"] <= 1.0
        assert snap["flight_recorder"]["worker_utilization"] \
            == snap["worker_utilization"]
    finally:
        pool.stop()


# ---------------------------------------------------------------------------
# backpressure + priorities
# ---------------------------------------------------------------------------


def test_backpressure_returns_429_at_depth():
    engine = RunEngine(jobs=1)
    with ServerThread(engine, max_queue_depth=1,
                      retry_after_s=2.5) as server:
        with ServerClient(server.url) as client:
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


class _PlantedFailure(RunEngine):
    """Fails every batch that holds ``bad``, and holds its first batch
    until ``release`` is set so later submissions queue up."""

    def __init__(self, bad):
        super().__init__(jobs=1)
        self.bad = bad
        self.release = threading.Event()
        self.batches = []

    def run(self, requests):
        requests = list(requests)
        self.batches.append(sorted(r.seed for r in requests))
        if len(self.batches) == 1:
            assert self.release.wait(10)
        if self.bad in requests:
            raise ValueError("planted failure")
        return super().run(requests)


def test_failing_job_fails_only_itself():
    bad, good = _point(seed=99), _point(seed=3)
    engine = _PlantedFailure(bad)
    deadline = time.monotonic() + 10

    def wait_until(done, what):
        while not done():
            assert time.monotonic() < deadline, what
            time.sleep(0.01)

    with ServerThread(engine) as server:
        with ServerClient(server.url) as client:
            client.submit(_point(seed=1), wait=False)   # occupies the engine
            wait_until(lambda: engine.batches, "engine never started")
            # The rerun goes in arrival order, so the bad job must arrive
            # first: post it alone and wait until it is queued.
            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                bad_reply = pool.submit(client.submit, bad)
                wait_until(lambda: client.health()["queue_depth"] == 1,
                           "bad job never queued")
                good_reply = pool.submit(client.submit, good)
                wait_until(lambda: client.health()["queue_depth"] == 2,
                           "good job never queued")
                engine.release.set()
                with pytest.raises(ServerError) as exc:
                    bad_reply.result(30)
                doc, _dedup = good_reply.result(30)
            assert exc.value.status == 500
            assert "planted failure" in str(exc.value)
            # one batch of both, then each job alone
            assert engine.batches == [[1], [3, 99], [99], [3]]
            direct = RunEngine(jobs=1).run([good])[0]
            assert _strip_wall(doc["summary"].to_dict()) \
                == _strip_wall(direct.to_dict())
            assert (server.completed, server.errors) == (2, 1)


def test_a_memo_smaller_than_a_batch_still_answers_every_waiter():
    engine = _PlantedFailure(bad=None)      # holds its first batch
    points = [_point(seed=s) for s in (11, 12, 13)]
    deadline = time.monotonic() + 10
    with ServerThread(engine, memo_entries=1) as server:
        with ServerClient(server.url) as client:
            client.submit(_point(seed=1), wait=False)
            with concurrent.futures.ThreadPoolExecutor(3) as pool:
                replies = [pool.submit(client.submit, p) for p in points]
                while client.health()["queue_depth"] < 3:
                    assert time.monotonic() < deadline, "posts never queued"
                    time.sleep(0.01)
                engine.release.set()
                docs = [reply.result(30) for reply in replies]
            assert engine.batches == [[1], [11, 12, 13]]
            # one job of the batch stayed memoized (the last to arrive,
            # which the threads decide): the other two waiters' entries
            # were evicted before they resumed
            keys = {p.key(engine.fingerprint) for p in points}
            assert len(server._memo) == 1 and set(server._memo) <= keys
            assert [(doc["summary"].seed, dedup) for doc, dedup in docs] \
                == [(11, "none"), (12, "none"), (13, "none")]
            assert server.errors == 0


def _referents(root):
    """Every object reachable from ``root`` through gc referents."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


def _raw(client, method, target, body=None):
    if body is not None:
        body = json.dumps(body).encode("utf-8")
    status, _headers, payload = client._exchange(proto.render_request(
        method, target, "%s:%d" % (client.host, client.port), body))
    assert status == 200, payload
    return payload


def test_memo_keeps_bytes_and_renders_json_from_them():
    req = _point()
    with ServerThread(RunEngine(jobs=1)) as server:
        with ServerClient(server.url) as client:
            doc, _dedup = client.submit(req)             # pickle first
            key = doc["key"]
            (entry,) = server._memo.values()
            assert list(entry) == ["pickle"]
            assert not any(isinstance(obj, RunSummary)
                           for obj in _referents(server._memo))
            want = proto.json_response(200, {
                "key": key, "status": "complete",
                "summary": doc["summary"].to_dict()}).split(
                    b"\r\n\r\n", 1)[1]
            posted = _raw(client, "POST", "/runs", {
                "request": req.canonical(), "format": "json"})
            fetched = _raw(client, "GET", "/runs/%s?format=json" % key)
            assert posted == fetched == want
            assert sorted(entry) == ["json", "pickle"]
            assert all(type(body) is bytes for body in entry.values())


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
        with ServerClient(server.url) as client:
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
                client.status("0" * 64)
            assert exc.value.status == 404
            with pytest.raises(ServerError) as exc:
                client.status("no-such-key")
            assert exc.value.status == 400
    # stopping the server ends the event stream
    watcher.join(5)
    assert not watcher.is_alive()


def test_unknown_route_and_bad_json():
    engine = RunEngine(jobs=1)
    with ServerThread(engine) as server:
        with ServerClient(server.url) as client:
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
            # a seed numpy would refuse, and a misspelled field that would
            # otherwise be dropped from the key, are refused too
            bad_seed = dict(_point().canonical(), seed="x")
            typo = dict(_point().canonical(), tracksharing=True)
            for body, word in ((bad_seed, "seed"), (typo, "tracksharing")):
                with pytest.raises(ServerError) as exc:
                    client._request("POST", "/runs", body={"request": body})
                assert exc.value.status == 400
                assert word in str(exc.value)
            assert server.engine.requests == 0
            # core ids and vaults outside the 4-core system are refused too
            stray_core = _point().canonical()
            stray_core["placements"][0]["core_ids"] = [0, 99]
            stray_vault = _point().canonical()
            stray_vault["faults"] = FaultPlan(
                vault_events=((10, 99, "offline"),)).canonical()
            for body, word in ((stray_core, "core id"),
                               (stray_vault, "vault/bank")):
                with pytest.raises(ServerError) as exc:
                    client._request("POST", "/runs", body={"request": body})
                assert exc.value.status == 400
                assert word in str(exc.value)
            assert server.engine.requests == 0 and server.submitted == 0
            # malformed JSON body straight over the socket
            with socket_mod.create_connection(
                    (server.host, server.port), timeout=10) as sock:
                payload = b"not json"
                sock.sendall(b"POST /runs HTTP/1.1\r\n"
                             b"Content-Length: %d\r\n\r\n%s"
                             % (len(payload), payload))
                reply = sock.recv(65536)
            assert b"400" in reply.split(b"\r\n", 1)[0]


def test_hostile_requests_get_400_and_queue_nothing():
    # Refused before queueing in either mode, not failed inside the
    # job (500) or run as nonsense (200).
    engine = RunEngine(jobs=1)
    with ServerThread(engine) as server:
        with ServerClient(server.url) as client:
            for case in sorted(HOSTILE_EDITS):
                for mode in ("simulate", "estimate"):
                    body, word = hostile_body(case, mode)
                    with pytest.raises(ServerError) as exc:
                        client._request("POST", "/runs", body=body)
                    assert exc.value.status == 400, (case, mode)
                    assert word in str(exc.value), (case, mode)
            health = client.health()
            assert (health["submitted"], health["queue_depth"],
                    engine.requests) == (0, 0, 0)


def test_estimate_mode_refuses_points_the_estimator_cannot_resolve():
    # Each is a valid point to simulate; in estimate mode it used to be
    # queued and then fail inside the job (500).
    spec = SCALEOUT_WORKLOADS["web_search"]
    config = system_config("baseline", num_cores=4, scale=SCALE)
    requests = {
        "colocated": RunRequest.colocation(
            config, [(spec, (0, 1)), (SCALEOUT_WORKLOADS["data_serving"],
                                      (2, 3))], PLAN, 7),
        "faults": RunRequest.point(config, spec, PLAN, 7,
                                   faults=FaultPlan(data_flip_rate=0.01)),
        "track_sharing": RunRequest.point(config, spec, PLAN, 7,
                                          track_sharing=True),
        "three_level": RunRequest.point(
            system_config("3level_sram", num_cores=4, scale=SCALE), spec,
            PLAN, 7)}
    engine = RunEngine(jobs=1)
    with ServerThread(engine) as server:
        with ServerClient(server.url) as client:
            for case, req in sorted(requests.items()):
                wire = req.canonical()
                parsed = proto.parse_run_payload({"request": wire})[0]
                assert parsed.mode == "simulate", case
                with pytest.raises(ServerError) as exc:
                    client._request("POST", "/runs", body={
                        "request": dict(wire, mode="estimate")})
                assert exc.value.status == 400, case
                assert "mode 'estimate'" in str(exc.value), case
            health = client.health()
            assert (health["submitted"], health["queue_depth"],
                    engine.requests) == (0, 0, 0)


def test_oversized_request_head_gets_400():
    engine = RunEngine(jobs=1)
    with ServerThread(engine) as server:
        # 70 KB overruns asyncio's 64 KiB line limit.
        with socket_mod.create_connection((server.host, server.port),
                                          timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Big: %s\r\n\r\n"
                         % (b"a" * 70000))
            reply = sock.recv(65536)
        assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        with ServerClient(server.url) as client:
            assert client.health()["ok"]


def _read_to_eof(sock):
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def test_truncated_body_gets_400_and_queues_nothing():
    engine = RunEngine(jobs=1)
    body = json.dumps({"request": _point().canonical()}).encode("utf-8")
    head = (b"POST /runs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % len(body))
    with ServerThread(engine) as server:
        with ServerClient(server.url) as client:
            # half-close after half the body: the client can still read
            with socket_mod.create_connection(
                    (server.host, server.port), timeout=10) as sock:
                sock.sendall(head + body[:len(body) // 2])
                sock.shutdown(socket_mod.SHUT_WR)
                reply = _read_to_eof(sock)
            assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
            assert b"body truncated: got %d of %d bytes" \
                % (len(body) // 2, len(body)) in reply
            # full close: nobody to answer, and nothing queued
            before = client.health()
            with socket_mod.create_connection(
                    (server.host, server.port), timeout=10) as sock:
                sock.sendall(head + body[:10])
            time.sleep(0.3)
            assert client.health() == before
            assert before["submitted"] == 0 and before["inflight"] == 0
            assert engine.requests == 0


def test_sse_subscriber_dropped_after_client_leaves():
    engine = RunEngine(jobs=1)
    with ServerThread(engine) as server:
        with socket_mod.create_connection((server.host, server.port),
                                          timeout=10) as sock:
            sock.sendall(b"GET /events HTTP/1.1\r\n\r\n")
            seen = b""
            while b"event: hello" not in seen:
                chunk = sock.recv(65536)
                assert chunk, "stream closed before hello"
                seen += chunk
            assert len(server._subscribers) == 1
        # the server notices the departure when it next writes: one
        # job's events are enough
        with ServerClient(server.url) as client:
            client.submit(_point())
        deadline = time.monotonic() + 10
        while server._subscribers and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not server._subscribers


def test_get_run_falls_back_to_disk_cache(tmp_path):
    req = _point()
    cache = RunCache(str(tmp_path))
    engine = RunEngine(jobs=1, cache=cache)
    key = req.key(engine.fingerprint)
    engine.run([req])                   # populates the disk cache
    served = RunEngine(jobs=1, cache=cache)
    with ServerThread(served) as server:
        with ServerClient(server.url) as client:
            doc = client.status(key, fmt="pickle")
            assert doc["status"] == "complete"
            assert doc["summary"].request_key == key


class _Planted:
    """Unpickling this creates ``marker``: proof that a pickle ran."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return os.mkdir, (self.marker,)


def test_get_run_refuses_traversal_key(tmp_path):
    cache_dir = tmp_path / "srv" / "cache"
    cache_dir.mkdir(parents=True)
    # RunCache.path_for("../x/evil") is <cache>/../../x/evil.pkl.
    (tmp_path / "x").mkdir()
    marker = tmp_path / "unpickled"
    with open(tmp_path / "x" / "evil.pkl", "wb") as f:
        pickle.dump(_Planted(str(marker)), f)
    engine = RunEngine(jobs=1, cache=RunCache(str(cache_dir)))
    with ServerThread(engine) as server:
        with socket_mod.create_connection((server.host, server.port),
                                          timeout=10) as sock:
            sock.sendall(b"GET /runs/../x/evil HTTP/1.1\r\n\r\n")
            reply = sock.recv(65536)
        assert reply.split(b"\r\n", 1)[0] == b"HTTP/1.1 400 Bad Request"
        assert not marker.exists()
        with ServerClient(server.url) as client:
            assert client.health()["ok"]


# ---------------------------------------------------------------------------
# --server against a real server process
# ---------------------------------------------------------------------------


@pytest.fixture
def server_url():
    """URL of ``python -m repro.serve --port 0 --no-cache`` running in
    its own process (a server in this process would share the
    module-global observation session with the client)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--no-cache"],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        line = proc.stdout.readline() if ready else ""
        assert line.startswith("READY "), line
        yield line.split()[1]
    finally:
        proc.terminate()
        proc.wait(10)
        proc.stdout.close()


def _submitted(client):
    for line in client.metrics().splitlines():
        if line.startswith("silo_serve_submitted "):
            return int(line.split()[1])
    raise AssertionError("no silo_serve_submitted metric")


def test_http_transport_against_server_process(server_url):
    a, b = _point(seed=1), _point(seed=2)
    serial = RunEngine(jobs=1).run([a, b])
    http = HttpTransport(server_url)
    try:
        with observe(collect_manifests=True) as session:
            engine = RunEngine(cache=None, transport=http)
            got = engine.run([a, b, a])
        # the in-batch duplicate is folded client-side: one POST each
        assert _submitted(http.client) == 2
        assert len(session.runs) == 2
        workers = {s["worker"] for s in engine.recorder.spans()}
        assert workers and all(w.startswith("http:") for w in workers)
        assert [_strip_wall(s.to_dict()) for s in got] \
            == [_strip_wall(s.to_dict())
                for s in (serial[0], serial[1], serial[0])]

        # estimate mode resolves estimator-capable points locally
        est = RunEngine(cache=None, mode="estimate", transport=http)
        est.run([_point(seed=3)])
        assert est.estimated == 1
        assert _submitted(http.client) == 2
    finally:
        http.stop()


def test_cli_server_flag_writes_manifest(server_url, tmp_path, capsys):
    argv = ["fig3", "--server", server_url, "--scale", "512",
            "--sampling", "1500:800", "--json", "--manifest",
            str(tmp_path)]
    assert experiments_main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    engine = doc["engine"]
    assert engine["transport"].startswith("http:")
    with open(tmp_path / "fig3-manifest.json") as f:
        manifest = json.load(f)
    assert len(manifest["runs"]) == engine["unique_points"] > 0
    spans = manifest["engine"]["flight_recorder"]["spans"]
    assert len(spans) == engine["unique_points"]
    assert all(s["worker"].startswith("http:") for s in spans)
