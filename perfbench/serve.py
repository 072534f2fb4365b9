"""The ``serve-warm`` and ``serve-cold`` workloads: ``python -m
repro.serve --mode estimate --port 0`` in its own process, driven by a
closed loop of :data:`CLIENTS` clients inside this process.

Each client blocks on the public ``ServerClient.submit``, which opens a
new connection per request as the experiment CLI's ``--server`` does;
the loop is closed because every in-repo caller waits for its reply.

* ``serve-warm`` resolves a seeded pool of 16-core Fig. 10 / Fig. 14
  points in both wire formats during set-up (the pool is smaller than
  the server's response memo), then replays the pool: HTTP parsing,
  ``RunRequest.from_canonical``, ``RunRequest.key`` and memo rendering
  do all the work.
* ``serve-cold`` sends never-seen points inside the estimator's trust
  region to a fresh, LRU-capped run cache that the run overflows; a
  share of the requests repeats an earlier key (both clients sending
  the same new point at once, for in-flight dedup, or a client
  re-sending an earlier point, for the memo), so the estimator, engine
  dispatch and ``RunCache.put`` with live eviction do the work.

The timed phase runs in segments with a host calibration between each
two, and every set-up sample between two calibrations
(``common.HostClock``); both are reported in reference-host seconds,
each stretch scaled by the host's speed around it.
"""

import json
import os
import pickle
import random
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time

from perfbench import common, spans
from perfbench.metrics import SERVER_COUNTS

CLIENTS = 2
#: Requests per second of ``--seconds``, which sizes each run's fixed
#: work: the throughput both workloads reach on a 2-vCPU host, not a
#: property of the traffic.
RATE = {"serve-warm": 500, "serve-cold": 100}
#: Enough round trips for a p90 with ten samples beyond it.
MIN_REQUESTS = 100
#: Seconds of nominal work per timed segment (a calibration follows
#: each segment).
SEGMENT_S = 2
#: Requests not sent by then count as failed (the run must end).
LOOP_DEADLINE_S = 120.0
#: Seconds a client waits for the other at a twin step.
TWIN_WAIT_S = 30.0
#: serve-warm's share of json requests.  Every in-repo caller posts
#: pickle (``--server``, ``ClientEngine``, the client CLI), so the
#: measured share is 0; this nonzero share is an unmeasured pick that
#: keeps the json render path in the warm round trip.  serve-cold posts
#: pickle only.
JSON_SHARE = 0.1
#: Share of posted requests whose key an earlier request already
#: carried, measured over every simulating experiment's grid at the
#: CLI defaults as ``--server`` posts them (within-batch duplicates
#: folded by ``ClientEngine``): 100 of 274 (``python3 -m
#: perfbench.traffic``).
REPEAT_SHARE = 100 / 274
#: How serve-cold splits the repeats: half as in-flight twins (both
#: clients send the same new point at once) and half as memo repeats
#: (a client re-sends a point sent in an earlier step).  The split is
#: an unmeasured pick: which repeats overlap in flight depends on how
#: many users run figures against one server at once.
TWIN_SHARE = MEMO_SHARE = REPEAT_SHARE / 2
#: Both LLC organizations: shared (baseline, vaults_sh) and private
#: vaults (silo, silo_co).
SYSTEMS = ("baseline", "silo", "silo_co", "vaults_sh")
COLD_CACHE_CAP = "1m"
COLD_SCALES = (64, 128, 256, 512)
COLD_CORES = (4, 16)
#: Fresh servers timed for setup_s (the median is reported).
SETUP_REPS = {"serve-warm": 3, "serve-cold": 7}
#: Keys re-resolved locally after the timed phase.
CHECK_SAMPLE = 12
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "serve_launcher.py")


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _workloads():
    """Every Fig. 10 (scale-out) and Fig. 14 (enterprise) workload."""
    from repro.workloads.enterprise import ENTERPRISE_WORKLOADS
    from repro.workloads.scaleout import SCALEOUT_WORKLOADS
    return [spec for suite in (SCALEOUT_WORKLOADS, ENTERPRISE_WORKLOADS)
            for _name, spec in sorted(suite.items())]


def warm_pool(seed):
    """One 16-core point per (workload, system) pair at the figures'
    default scale and plan, each with a seeded point seed."""
    from repro.core.systems import system_config
    from repro.sim.engine import RunRequest
    from repro.sim.sampling import PRESETS

    rng = random.Random("warm-pool-%d" % seed)
    return [RunRequest.point(system_config(system, scale=64), spec,
                             PRESETS["standard"], rng.randrange(1 << 30))
            for spec in _workloads() for system in SYSTEMS]


def warm_streams(seed, total):
    """Per-client lists of ``(pool index, format)``."""
    rng = random.Random("warm-stream-%d" % seed)
    size = len(_workloads()) * len(SYSTEMS)
    return [[(rng.randrange(size), _fmt(rng))
             for _ in range(total // CLIENTS)] for _ in range(CLIENTS)]


def _fmt(rng):
    return "json" if rng.random() < JSON_SHARE else "pickle"


def cold_streams(seed, total):
    """Per-client lists of ``(request, "pickle")`` and the set of twin
    steps.  New points have the same mix of workload, system, core
    count and scale for every seed (drawn without replacement from
    shuffled blocks).  ``total * TWIN_SHARE`` seeded steps are twin
    steps, on which both clients send the same new point; on
    ``total * MEMO_SHARE`` seeded other requests a client re-sends a
    point sent in an earlier step."""
    from repro.core.systems import system_config
    from repro.sim.engine import RunRequest
    from repro.sim.sampling import PRESETS

    rng = random.Random("cold-stream-%d" % seed)
    combos = [(spec, system, cores, scale) for spec in _workloads()
              for system in SYSTEMS for cores in COLD_CORES
              for scale in COLD_SCALES]
    block = []

    def new_point():
        if not block:
            block.extend(combos)
            rng.shuffle(block)
        spec, system, cores, scale = block.pop()
        return RunRequest.point(
            system_config(system, num_cores=cores, scale=scale), spec,
            PRESETS["quick"], rng.randrange(1 << 30))

    steps = total // CLIENTS
    twins = set(rng.sample(range(1, steps), round(total * TWIN_SHARE)))
    slots = [(k, step) for step in range(1, steps) if step not in twins
             for k in range(CLIENTS)]
    repeats = set(rng.sample(slots, round(total * MEMO_SHARE)))
    streams = [[] for _ in range(CLIENTS)]
    sent = []
    for step in range(steps):
        if step in twins:
            points = [new_point()] * CLIENTS
        else:
            points = [rng.choice(sent) if (k, step) in repeats
                      else new_point() for k in range(CLIENTS)]
        for k, point in enumerate(points):
            streams[k].append((point, "pickle"))
        sent.extend(points)
    return streams, twins


def request_bodies(streams):
    """The exact JSON documents ``ServerClient.submit`` posts."""
    return [json.dumps({"request": req.canonical(), "priority": "batch",
                        "wait": True, "format": fmt})
            for stream in streams for req, fmt in stream]


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class ServerProcess:
    """One job server subprocess on port 0.  :meth:`start` returns once
    it prints ``READY``; :meth:`stop` interrupts it (so a traced server
    writes its spans), waits, and kills it if it will not exit."""

    def __init__(self, workdir, extra_args=(), spans_out=None):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        args = ["--mode", "estimate", "--port", "0",
                "--cache-dir", os.path.join(workdir, "cache")]
        args += list(extra_args)
        if spans_out is None:
            self.cmd = [sys.executable, "-m", "repro.serve"] + args
        else:
            self.cmd = [sys.executable, LAUNCHER, spans_out] + args
        self.proc = None
        self.url = None
        self._log = None

    def start(self):
        self._log = open(os.path.join(self.workdir, "server.log"), "wb")
        self.proc = subprocess.Popen(self.cmd, cwd=common.ROOT,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        try:
            self.url = self._await_ready()
        except BaseException:
            self.stop()
            raise
        return self

    def _await_ready(self):
        deadline = time.monotonic() + READY_TIMEOUT_S
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buf:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError("server not READY within %gs"
                                       % READY_TIMEOUT_S)
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("server exited before READY: %s"
                                       % self.log_tail())
                buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        if not line.startswith("READY "):
            raise RuntimeError("unexpected server output %r" % line)
        return line.split()[1]

    def log_tail(self):
        with open(os.path.join(self.workdir, "server.log"), "rb") as f:
            return f.read()[-2000:].decode("utf-8", "replace")

    def stop(self):
        proc = self.proc
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            proc.stdout.close()
            self._log.close()
            self.proc = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()


def scrape(client):
    """``{metric: value}`` from the server's ``GET /metrics``."""
    out = {}
    for line in client.metrics().splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            out[name] = float(value)
    return out


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class LoopResult:
    def __init__(self):
        self.rtts = []
        self.failed = 0
        self.completed = 0
        self.events = 0
        #: X-Silo-Dedup header value -> responses carrying it.
        self.dedup = {}
        self.lines = []
        self.unmet = []
        #: (raw, reference-host) seconds of each timed segment.
        self.laps = []
        self.start = self.end = 0.0

    @property
    def raw_s(self):
        return sum(raw for raw, _ref in self.laps)

    @property
    def ref_s(self):
        return sum(ref for _raw, ref in self.laps)


def closed_loop(url, streams, check, steps, res, deadline, twins=()):
    """Run ``steps`` (a range of step indexes) of every client's
    stream, each client blocking on ``ServerClient.submit``; on a twin
    step the clients first wait for each other, so the twin requests
    arrive together.  ``check(client, step, doc)`` returns True for a
    correct response; the rest count as failed.  Adds to ``res``."""
    from repro.serve.client import ServerClient, ServerError

    lock = threading.Lock()
    barrier = threading.Barrier(len(streams))

    def client(k):
        conn = ServerClient(url, timeout=30.0)
        rtts = []
        failed = completed = events = 0
        dedup = {}
        errors = []
        for j in steps:
            req, fmt = streams[k][j]
            if time.perf_counter() > deadline:
                failed += steps.stop - j
                errors.append("client %d: %d requests not sent by the "
                              "deadline" % (k, steps.stop - j))
                barrier.abort()
                break
            if j in twins:
                try:
                    barrier.wait(TWIN_WAIT_S)
                except threading.BrokenBarrierError:
                    pass
            t0 = time.perf_counter()
            try:
                doc, how = conn.submit(req, fmt=fmt)
            except (ServerError, OSError) as e:
                rtts.append(time.perf_counter() - t0)
                failed += 1
                errors.append("client %d request %d: %s" % (k, j, e))
                continue
            rtts.append(time.perf_counter() - t0)
            dedup[how] = dedup.get(how, 0) + 1
            if check(k, j, doc):
                completed += 1
                events += doc["summary"].driven_events()
            else:
                failed += 1
        with lock:
            res.rtts += rtts
            res.failed += failed
            res.completed += completed
            res.events += events
            for how, n in dedup.items():
                res.dedup[how] = res.dedup.get(how, 0) + n
            res.lines += errors[:5]

    threads = [threading.Thread(target=client, args=(k,))
               for k in range(len(streams))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def timed_phase(url, work, segments):
    """Every client's whole stream, in ``segments`` consecutive slices
    of equal steps with a host calibration after each."""
    res = LoopResult()
    steps = len(work.streams[0])
    bounds = [round(i * steps / segments) for i in range(segments + 1)]
    deadline = time.perf_counter() + LOOP_DEADLINE_S
    clock = common.HostClock()
    res.start = time.perf_counter()
    for lo, hi in zip(bounds, bounds[1:]):
        clock.start()
        closed_loop(url, work.streams, work.check, range(lo, hi), res,
                    deadline, work.twins)
        res.laps.append(clock.lap())
    res.end = time.perf_counter()
    return res


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _blob(summary):
    """Exact text form of a summary (floats by repr)."""
    return json.dumps(summary.to_dict(), sort_keys=True)


def local_mismatches(requests_and_summaries):
    """Re-resolve ``(request, server summary)`` pairs through a local
    ``RunEngine(mode="estimate")``; returns the mismatched requests."""
    from repro.sim.engine import RunEngine

    engine = RunEngine(jobs=1, cache=None, mode="estimate")
    return [req for req, summary in requests_and_summaries
            if _blob(engine.run([req])[0]) != _blob(summary)]


class Warm:
    """serve-warm: replay a memo-resident pool."""

    server_args = ()
    twins = frozenset()

    def __init__(self, seed, total):
        self.seed = seed
        self.pool = warm_pool(seed)
        idx_streams = warm_streams(seed, total)
        self.indexes = idx_streams
        self.streams = [[(self.pool[i], fmt) for i, fmt in s]
                        for s in idx_streams]
        self.ref = {}

    def setup(self, client):
        """Resolve the pool in both formats; keep each response."""
        for i, req in enumerate(self.pool):
            for fmt in ("pickle", "json"):
                doc, _dedup = client.submit(req, fmt=fmt)
                self.ref[i, fmt] = (doc, pickle.dumps(
                    doc, protocol=pickle.HIGHEST_PROTOCOL))

    def check(self, k, j, doc):
        idx, fmt = self.indexes[k][j]
        return pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL) \
            == self.ref[idx, fmt][1]

    def verify(self, loop):
        """Re-resolve a seeded sample of pool keys locally; every timed
        response of a mismatched key counts as failed."""
        rng = random.Random("warm-check-%d" % self.seed)
        sample = rng.sample(range(len(self.pool)), CHECK_SAMPLE)
        pairs = [(self.pool[i], self.ref[i, fmt][0]["summary"])
                 for i in sample for fmt in ("pickle", "json")]
        bad = {id(req) for req in local_mismatches(pairs)}
        failed = sum(1 for s in self.streams for req, _fmt in s
                     if id(req) in bad)
        return failed, ["warm responses byte-equal to set-up responses; "
                        "%d of %d sampled keys match a local estimate"
                        % (CHECK_SAMPLE - len(bad), CHECK_SAMPLE)]

    def premise(self, loop, counts):
        """Every timed request must be answered from the memo."""
        memo = loop.dedup.get("memo", 0)
        requests = sum(loop.dedup.values())
        return ([] if memo == requests else
                ["%d of %d warm requests missed the memo"
                 % (requests - memo, requests)])


class Cold:
    """serve-cold: never-seen points into a capped, fresh cache."""

    server_args = ("--cache-max-bytes", COLD_CACHE_CAP)

    def __init__(self, seed, total):
        self.seed = seed
        self.streams, self.twins = cold_streams(seed, total)
        rng = random.Random("cold-check-%d" % seed)
        flat = [(k, j) for k, s in enumerate(self.streams)
                for j in range(len(s))]
        self.sample = set(rng.sample(flat, min(CHECK_SAMPLE, len(flat))))
        self.keys = {}
        self.kept = {}

    def setup(self, client):
        pass

    def check(self, k, j, doc):
        self.keys[k, j] = doc.get("key")
        if (k, j) in self.sample:
            self.kept[k, j] = doc["summary"]
        return (doc.get("status") == "complete"
                and doc["summary"].mode == "estimate")

    def verify(self, loop):
        """Every response must carry its request's key; a seeded sample
        must match a local estimate bit for bit."""
        from repro.sim.engine import code_fingerprint

        fp = code_fingerprint()
        failed = sum(1 for (k, j), key in self.keys.items()
                     if key != self.streams[k][j][0].key(fp))
        pairs = [(self.streams[k][j][0], self.kept[k, j])
                 for k, j in sorted(self.kept)]
        bad = local_mismatches(pairs)
        failed += len(bad)
        return failed, ["%d of %d sampled responses match a local "
                        "estimate" % (len(pairs) - len(bad), len(pairs))]

    def premise(self, loop, counts):
        """In-flight dedup and LRU pruning must both have happened."""
        return ["no %s during the timed phase" % name
                for name in ("silo_serve_deduped_inflight",
                             "silo_engine_cache_pruned_entries")
                if not counts.get(name)]


def _timed_pass(work, workdir, segments, spans_out=None):
    """Start a server, set it up, run the timed phase, check, stop.
    Returns ``(loop result, set-up (raw, reference-host) seconds,
    server observations)``."""
    from repro.serve.client import ServerClient

    clock = common.HostClock()
    server = ServerProcess(workdir, work.server_args, spans_out)
    with server:
        client = ServerClient(server.url)
        work.setup(client)
        setup = clock.lap()
        before = scrape(client)
        cpu0 = common.cpu_seconds(server.proc.pid)
        me0 = common.cpu_seconds(os.getpid())
        loop = timed_phase(server.url, work, segments)
        obs = {
            "server_cpu_s": common.cpu_seconds(server.proc.pid) - cpu0,
            "client_cpu_s": common.cpu_seconds(os.getpid()) - me0,
        }
        after = scrape(client)
        obs["rss_mb"] = common.peak_rss_mb(server.proc.pid)
    obs["counts"] = {name: after.get(name, 0.0) - before.get(name, 0.0)
                     for name in after}
    failed, lines = work.verify(loop)
    loop.failed += failed
    loop.lines += lines
    loop.unmet += work.premise(loop, obs["counts"])
    return loop, setup, obs


def _setup_only(work, workdir, clock):
    """One more fresh server set-up, between two host calibrations,
    then stopped; returns its (raw, reference-host) seconds."""
    from repro.serve.client import ServerClient

    clock.start()
    with ServerProcess(workdir, work.server_args) as server:
        work.setup(ServerClient(server.url))
        return clock.lap()


def _percentiles(rtts, lines):
    ms = [v * 1000.0 for v in rtts]
    p50, n = common.percentile(ms, 50)
    p90, _ = common.percentile(ms, 90)
    lines.append("rtt p50 %.4f ms, p90 %.4f ms over %d round trips"
                 % (p50, p90, n))
    return p50, p90


def server_layers(rows, t_start, t_end, counts):
    """Per-layer metrics from the traced server's spans within the
    timed phase and its ``/metrics`` deltas."""
    sp = [s for s in spans.spans_from_rows(rows)
          if s.start >= t_start and s.end <= t_end]
    self_s = spans.self_times(sp)

    def total(name):
        return sum(s.end - s.start for s in sp if s.name == name)

    parse_ends = {}
    for s in sp:
        if s.name == "serve.proto.parse" and "req" in s.attrs:
            parse_ends.setdefault(s.attrs["req"], []).append(s.end)
    waits, batches = [], []
    for s in sp:
        if s.name == "sim.engine.run":
            batches.append(len(s.attrs["reqs"]))
            for obj in s.attrs["reqs"]:
                ends = [e for e in parse_ends.get(obj, ()) if e <= s.start]
                if ends:
                    waits.append(s.start - max(ends))
    estimates = [s for s in sp if s.name == "analytic.estimate"]
    est_s = sum(s.end - s.start for s in estimates)
    out = {
        "serve.proto.read_s": total("serve.proto.read"),
        "serve.proto.parse_s": total("serve.proto.parse"),
        "serve.proto.render_s": total("serve.proto.render"),
        "serve.proto.response_bytes": sum(
            s.attrs.get("bytes", 0) for s in sp
            if s.name == "serve.proto.render"),
        "sim.engine.key_s": total("sim.engine.key"),
        "serve.server.queue_wait_s": (sum(waits) / len(waits)
                                      if waits else 0.0),
        "serve.server.batch_size_mean": (sum(batches) / len(batches)
                                         if batches else 0.0),
        "analytic.estimate_s": est_s,
        "analytic.estimates": len(estimates),
        "analytic.ms_per_point": (1000.0 * est_s / len(estimates)
                                  if estimates else 0.0),
        "sim.engine.cache_get_s": total("sim.engine.cache_get"),
        "sim.engine.cache_put_s": total("sim.engine.cache_put"),
        "sim.engine.self_s": sum(self_s[s.sid] for s in sp
                                 if s.name == "sim.engine.run"),
        "sim.engine.cache_misses": counts.get(
            "silo_engine_cache_misses", 0.0),
        "sim.engine.cache_pruned_entries": counts.get(
            "silo_engine_cache_pruned_entries", 0.0),
    }
    for name in SERVER_COUNTS:
        out["serve.server." + name] = counts.get("silo_serve_" + name, 0.0)
    submitted = counts.get("silo_serve_submitted", 0.0)
    out["serve.server.dedup_ratio"] = (
        (counts.get("silo_serve_deduped_inflight", 0.0)
         + counts.get("silo_serve_memo_hits", 0.0)) / submitted
        if submitted else 0.0)
    return out


def run(workload, seed, seconds, trace, tmp):
    """Run a serve workload; returns ``(result, report lines, spans)``."""
    total = max(MIN_REQUESTS, seconds * RATE[workload])
    segments = max(1, round(seconds / SEGMENT_S))
    make = Warm if workload == "serve-warm" else Cold
    work = make(seed, total)
    lines = []
    loop, setup_first, obs = _timed_pass(work, os.path.join(tmp, "main"),
                                         segments)
    result = {"attempted": sum(len(s) for s in work.streams),
              "failed": loop.failed}
    unmet = list(loop.unmet)
    lines += loop.lines
    p50, p90 = _percentiles(loop.rtts, lines)
    requests = len(loop.rtts)
    lines.append("server counts during the timed phase: %s" % json.dumps(
        {name: obs["counts"].get(name, 0.0)
         for name in ["silo_serve_" + n for n in SERVER_COUNTS
                      if n != "dedup_ratio"]
         + ["silo_engine_cache_pruned_entries"]}, sort_keys=True))
    lines.append("responses by X-Silo-Dedup: %s"
                 % json.dumps(loop.dedup, sort_keys=True))
    dumped = None
    if trace:
        spans_out = os.path.join(tmp, "spans.json")
        t_work = make(seed, total)
        t_loop, _setup, t_obs = _timed_pass(
            t_work, os.path.join(tmp, "traced"), segments, spans_out)
        result["failed"] += t_loop.failed
        result["attempted"] += sum(len(s) for s in t_work.streams)
        unmet += t_loop.unmet
        with open(spans_out) as f:
            dumped = json.load(f)
        metrics = server_layers(dumped, t_loop.start, t_loop.end,
                                t_obs["counts"])
        metrics.update({
            "serve.client.rtt_p50_ms": p50,
            "serve.client.rtt_p90_ms": p90,
            "serve.server.cpu_ms_per_req":
                1000.0 * obs["server_cpu_s"] / requests,
            "serve.client.cpu_ms_per_req":
                1000.0 * obs["client_cpu_s"] / requests,
            "trace.overhead": t_loop.ref_s / loop.ref_s,
        })
    else:
        clock = common.HostClock()
        setups = [setup_first] + [
            _setup_only(work, os.path.join(tmp, "setup%d" % i), clock)
            for i in range(SETUP_REPS[workload] - 1)]
        setup_raw = [raw for raw, _ref in setups]
        setup_ref = [ref for _raw, ref in setups]
        lines.insert(0, "setup samples raw (s): %s; median %.4f"
                     % (", ".join("%.4f" % v for v in setup_raw),
                        statistics.median(setup_raw)))
        lines.insert(1, "setup samples reference-host (s): %s"
                     % ", ".join("%.4f" % v for v in setup_ref))
        lines.insert(2, "timed phase raw %.4f s, reference-host %.4f s "
                     "in %d segments" % (loop.raw_s, loop.ref_s, segments))
        lines.insert(3, "segments raw/reference-host (s): %s" % ", ".join(
            "%.3f/%.3f" % lap for lap in loop.laps))
        wall = loop.ref_s
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "wall_s": wall,
            "ops_per_s": loop.completed / wall,
            "events_per_s": loop.events / wall,
            "peak_rss_mb": obs["rss_mb"],
        }
    lines += ["premise not met: %s" % line for line in unmet]
    result["metrics"] = metrics
    result["correct"] = result["failed"] == 0 and not unmet
    return result, lines, dumped
