"""The run engine's flight recorder: one span per resolved point
whatever its route, the gauges over them, the snapshot that carries
both, and the ``(span, summary)`` stream of ``RunEngine.listeners``."""

import json
import time

import pytest

from repro.obs.session import observe
from repro.obs.telemetry import span_trace_events
from repro.sim import engine as engine_mod
from repro.sim.config import HierarchyConfig
from repro.sim.engine import RunCache, RunEngine, RunRequest
from repro.sim.sampling import SamplingPlan
from repro.workloads.scaleout import WEB_SEARCH

PLAN = SamplingPlan(1500, 800)

#: ``RunEngine.snapshot()``'s keys, in order, at every level: the
#: ``engine`` block of ``--json`` output and manifest envelopes, the
#: BENCH records and the job server's ``/metrics`` names.
SNAPSHOT_KEYS = [
    "jobs", "requests", "unique_points", "cache_hits", "cache_misses",
    "executed", "exec_wall_s", "driven_events", "estimated",
    "estimate_wall_s", "estimate_fallbacks", "auto_boundary_simulations",
    "events_per_sec", "cache_hit_ratio", "in_flight",
    "worker_utilization", "cache_pruned_entries", "mode", "cache_dir",
    "cache_max_bytes", "transport", "flight_recorder"]
FLIGHT_RECORDER_KEYS = [
    "spans_recorded", "spans_retained", "spans_dropped", "busy_s",
    "queue_wait_s", "batches", "batch_wall_s", "in_flight", "workers",
    "worker_utilization", "spans"]
SPAN_KEYS = ["key", "mode", "worker", "queue_wait_s", "exec_s",
             "started_s", "ended_s", "outcome"]


def config(seed_name="rec"):
    return HierarchyConfig(name=seed_name, num_cores=4, scale=512,
                           llc_kind="private_vault")


def request(seed=3, mode="simulate"):
    return RunRequest.point(config(), WEB_SEARCH, PLAN, seed=seed,
                            mode=mode)


# -- the recorder's gauges and ring -----------------------------------------


def test_record_accumulates_gauges(tmp_path):
    engine = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    engine.run([request()])
    engine.run([request(), request(mode="estimate")])
    spans = engine.spans()
    assert [s["mode"] for s in spans] \
        == ["simulate", "cache-replay", "estimate"]
    assert engine.busy_s == pytest.approx(sum(s["exec_s"] for s in spans))
    assert engine.queue_wait_s \
        == pytest.approx(sum(s["queue_wait_s"] for s in spans))
    assert engine.in_flight == 0
    snap = engine.snapshot()
    assert snap["flight_recorder"]["batches"] == 2
    assert snap["worker_utilization"] \
        == pytest.approx(engine.busy_s / engine.batch_wall_s)


def test_span_shape_and_ring_bound(monkeypatch):
    monkeypatch.setattr(engine_mod, "SPAN_CAPACITY", 3)
    engine = RunEngine(jobs=1)
    points = [request(seed=s, mode="estimate") for s in range(5)]
    engine.run(points)
    spans = engine.spans()
    assert [s["key"] for s in spans] \
        == [p.key(engine.fingerprint) for p in points[2:]]
    for span in spans:
        assert list(span) == SPAN_KEYS
        assert span["ended_s"] == pytest.approx(span["started_s"]
                                                + span["exec_s"])
    fr = engine.snapshot()["flight_recorder"]
    assert (fr["spans_recorded"], fr["spans_retained"],
            fr["spans_dropped"]) == (5, 3, 2)


def test_summary_is_json_native():
    engine = RunEngine(jobs=4)
    engine.run([request()])         # one point never fans out
    snap = json.loads(json.dumps(engine.snapshot()))
    fr = snap["flight_recorder"]
    assert fr["spans_recorded"] == 1
    assert fr["workers"] == ["local"]
    # busy seconds are divided by four workers' capacity
    assert 0.0 < fr["worker_utilization"] <= 0.25
    assert fr["spans"][0]["mode"] == "simulate"


def test_span_trace_events_one_lane_per_worker(tmp_path):
    engine = RunEngine(jobs=2, cache=RunCache(str(tmp_path)))
    engine.run([request(seed=11), request(seed=12)])   # pool workers
    engine.run([request(seed=11), request(seed=12)])   # two local replays
    spans = engine.spans()
    assert [s["worker"] for s in spans[2:]] == ["local", "local"]
    workers = {s["worker"] for s in spans}
    assert len(spans) > len(workers)    # some worker has several spans
    events = span_trace_events(spans)
    xs = [e for e in events if e["ph"] == "X"]
    lanes = {e["tid"] for e in xs}
    assert len(lanes) == len(workers)
    # each worker's spans share one lane, and no two workers share one
    assert len({(s["worker"], e["tid"]) for s, e in zip(spans, xs)}) \
        == len(workers)
    names = [e for e in events if e.get("name") == "thread_name"]
    assert len(names) == len(workers)


def test_snapshot_keys_are_pinned_at_every_level(tmp_path):
    engine = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    engine.run([request()])
    snap = engine.snapshot()
    assert list(snap) == SNAPSHOT_KEYS
    assert list(snap["flight_recorder"]) == FLIGHT_RECORDER_KEYS
    assert [list(s) for s in snap["flight_recorder"]["spans"]] \
        == [SPAN_KEYS]


def test_every_route_records_one_span(tmp_path):
    """Cache replay, estimate, in-process simulation and the pool each
    record one span per point, so the recorder's count is the three
    route counters' sum."""
    engine = RunEngine(jobs=2, cache=RunCache(str(tmp_path)))

    def check():
        snap = engine.snapshot()
        assert snap["flight_recorder"]["spans_recorded"] \
            == snap["cache_hits"] + snap["estimated"] + snap["executed"] \
            == len(engine.spans())

    engine.run([request()])         # one point simulates in-process
    check()
    engine.run([request(), request(mode="estimate"), request(seed=11),
                request(seed=12)])
    check()
    spans = engine.spans()
    assert [(s["mode"], s["worker"] == "local") for s in spans] == [
        ("simulate", True), ("cache-replay", True), ("estimate", True),
        ("simulate", False), ("simulate", False)]
    assert (engine.cache_hits, engine.estimated, engine.executed) \
        == (1, 1, 3)


def test_exec_wall_meters_simulation_alone(tmp_path):
    """``exec_wall_s`` (and so ``events_per_sec``) leaves out the time
    the per-point step spends on cache puts and listeners."""
    engine = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    engine.listeners.append(lambda span, summary: time.sleep(0.3))
    engine.run([request()])
    (span,) = engine.spans()
    assert engine.batch_wall_s > 0.3
    assert span["exec_s"] <= engine.exec_wall_s < span["exec_s"] + 0.1


# -- integration: RunEngine -------------------------------------------------


def test_engine_records_simulate_then_replay_spans(tmp_path):
    engine = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    engine.run([request()])
    spans = engine.spans()
    assert [s["mode"] for s in spans] == ["simulate"]
    assert spans[0]["worker"] == "local"
    assert spans[0]["outcome"] == "ok"

    warm = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    warm.run([request()])
    spans = warm.spans()
    assert [s["mode"] for s in spans] == ["cache-replay"]
    assert warm.snapshot()["cache_hit_ratio"] == 1.0


def test_engine_snapshot_carries_flight_recorder(tmp_path):
    engine = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    engine.run([request(), request(seed=4)])
    snap = engine.snapshot()
    fr = snap["flight_recorder"]
    assert fr["spans_recorded"] == 2
    assert fr["batches"] == 1
    assert 0.0 < fr["worker_utilization"] <= 1.0 + 1e-9
    assert snap["cache_hit_ratio"] == 0.0
    json.dumps(snap, default=str)


def test_engine_streams_spans_through_session(tmp_path):
    # The engine hands each resolved point to its own listeners; no
    # observation session needs to be open.
    engine = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    points = []
    engine.listeners.append(lambda span, s: points.append((span, s)))
    (summary,) = engine.run([request()])
    [(span, got)] = points
    assert span["mode"] == "simulate"
    assert span == engine.spans()[-1] and got is summary
    # spans stream for cache replays too, and an open session still
    # records the replayed run
    points.clear()
    warm = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    warm.listeners.append(lambda span, s: points.append((span, s)))
    with observe(collect_manifests=True) as session:
        warm.run([request()])
    [(span, got)] = points
    assert span["mode"] == "cache-replay"
    assert got.performance() == summary.performance()
    assert len(session.runs) == 1


def test_pool_spans_carry_worker_pids(tmp_path):
    engine = RunEngine(jobs=2, cache=RunCache(str(tmp_path)))
    engine.run([request(seed=11), request(seed=12)])
    spans = engine.spans()
    assert len(spans) == 2
    assert all(s["mode"] == "simulate" for s in spans)
    assert all(s["worker"].startswith("pid:") for s in spans)
    assert all(s["exec_s"] > 0 for s in spans)
    assert all(s["queue_wait_s"] >= 0 for s in spans)
    assert engine.snapshot()["worker_utilization"] > 0


def test_profiling_session_forces_live_execution(tmp_path):
    # a profiler needs live Systems: the cache must be bypassed
    engine = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    engine.run([request()])  # populate the cache
    with observe(profile=True) as session:
        warm = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
        warm.run([request()])
    assert warm.cache_hits == 0
    assert warm.executed == 1
    # the live run was credited to the profile
    assert session.profiler.report()["driven_events"] \
        == warm.driven_events > 0


def test_telemetry_session_forces_live_execution(tmp_path):
    engine = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    engine.run([request()])
    with observe(telemetry_every=800) as session:
        warm = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
        warm.run([request()])
    assert warm.cache_hits == 0
    assert session.telemetry and session.telemetry[0].windows
