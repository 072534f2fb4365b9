"""Job-server acceptance benchmark: warm-path throughput and RTT.

Four phases against one in-process :class:`repro.serve.JobServer`
backed by a disk cache:

1. cold submit -- one real simulation over HTTP;
2. in-flight dedup burst -- 8 concurrent identical POSTs must execute
   exactly one simulation;
3. sustained warm-path throughput -- the memoized response path must
   hold at least 100 req/s;
4. warm HTTP RTT vs direct cache replay -- serving a cached summary
   over loopback HTTP must cost at most 2x what the same replay costs
   through a local ``RunEngine`` + ``RunCache``.

Everything measured lands in ``benchmarks/results/BENCH_serve.json``
so CI archives one machine-readable serving-performance record per
run.
"""

import concurrent.futures
import http.client
import json
import os
import statistics
import time

from repro.core.systems import system_config
from repro.serve.client import ServerClient
from repro.sim.engine import RunCache, RunEngine, RunRequest
from repro.sim.sampling import SamplingPlan
from repro.workloads.scaleout import SCALEOUT_WORKLOADS
from tests.test_serve import ServerThread

PLAN = SamplingPlan(1500, 800)
SCALE = 512

WARM_REQUESTS = 300
RTT_SAMPLES = 50
BURST = 8


def _point(seed=7):
    return RunRequest.point(
        system_config("baseline", num_cores=4, scale=SCALE),
        SCALEOUT_WORKLOADS["web_search"], PLAN, seed)


def _persistent_post_rtts(server, request, n):
    """RTT for ``n`` warm POST /runs on one keep-alive connection."""
    payload = json.dumps({"request": request.canonical(),
                          "priority": "interactive",
                          "wait": True, "format": "pickle"}
                         ).encode("utf-8")
    conn = http.client.HTTPConnection(server.host, server.port,
                                      timeout=60)
    rtts = []
    try:
        for _ in range(n):
            t0 = time.perf_counter()
            conn.request("POST", "/runs", body=payload,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            body = resp.read()
            rtts.append(time.perf_counter() - t0)
            assert resp.status == 200, body
    finally:
        conn.close()
    return rtts


def test_serve_warm_throughput_and_dedup(tmp_path, write_bench):
    cache = RunCache(str(tmp_path))
    engine = RunEngine(jobs=1, cache=cache)

    with ServerThread(engine) as server:
        client = ServerClient(server.url)

        # -- phase 1: cold submit (one real simulation) -----------------
        t0 = time.perf_counter()
        doc, dedup = client.submit(_point(seed=7))
        cold_s = time.perf_counter() - t0
        assert dedup == "none"
        assert engine.executed == 1
        key = doc["key"]

        # -- phase 2: in-flight dedup burst -----------------------------
        burst_req = _point(seed=8)
        with concurrent.futures.ThreadPoolExecutor(BURST) as pool:
            results = list(pool.map(
                lambda _i: client.submit(burst_req), range(BURST)))
        assert engine.executed == 2       # the burst ran exactly once
        burst_dedups = sorted(d for _doc, d in results)
        assert burst_dedups.count("none") == 1

        # -- phase 3: sustained warm throughput (memoized path) ---------
        warm_rtts = _persistent_post_rtts(server, _point(seed=7),
                                          WARM_REQUESTS)
        warm_wall = sum(warm_rtts)
        req_per_s = WARM_REQUESTS / warm_wall
        assert engine.executed == 2       # all memo hits, no new sims

        # -- phase 4: warm RTT vs direct cache replay -------------------
        http_rtts = _persistent_post_rtts(server, _point(seed=7),
                                          RTT_SAMPLES)
        replay_engine = RunEngine(jobs=1, cache=cache)
        direct = []
        for _ in range(RTT_SAMPLES):
            t0 = time.perf_counter()
            replay_engine.run([_point(seed=7)])
            direct.append(time.perf_counter() - t0)
        assert replay_engine.executed == 0
        assert replay_engine.cache_hits == RTT_SAMPLES

        rtt_ms = statistics.median(http_rtts) * 1e3
        direct_ms = statistics.median(direct) * 1e3

        health = client.health()
        assert client.status(key)["status"] == "complete"

    write_bench("BENCH_serve.json", {
        "schema": "silo-repro-bench-serve/1",
        "host_cpu_count": os.cpu_count(),
        "cold_submit_s": round(cold_s, 3),
        "inflight_burst": {
            "posts": BURST,
            "executed": 1,
            "dedup_ratio": round((BURST - 1) / BURST, 4),
        },
        "warm": {
            "requests": WARM_REQUESTS,
            "wall_s": round(warm_wall, 3),
            "req_per_s": round(req_per_s, 1),
        },
        "warm_rtt_ms": {
            "median": round(rtt_ms, 3),
            "p90": round(sorted(http_rtts)[int(0.9 * RTT_SAMPLES)]
                         * 1e3, 3),
        },
        "direct_replay_ms": {"median": round(direct_ms, 3)},
        "rtt_over_replay": round(rtt_ms / direct_ms, 3),
        "server": health,
    })

    assert req_per_s >= 100.0
    assert rtt_ms <= 2.0 * direct_ms
