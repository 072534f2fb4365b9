"""Engine flight recorder: span accounting, gauges, streaming through
ObservationSession listeners, and the engine integration."""

import json

import pytest

from repro.obs.recorder import FlightRecorder, span_trace_events
from repro.obs.session import observe
from repro.sim.config import HierarchyConfig
from repro.sim.engine import RunCache, RunEngine, RunRequest
from repro.sim.sampling import SamplingPlan
from repro.workloads.scaleout import WEB_SEARCH

PLAN = SamplingPlan(1500, 800)


def config(seed_name="rec"):
    return HierarchyConfig(name=seed_name, num_cores=4, scale=512,
                           llc_kind="private_vault")


def request(seed=3):
    return RunRequest.point(config(), WEB_SEARCH, PLAN, seed=seed)


# -- unit: the recorder itself ----------------------------------------------


def test_record_accumulates_gauges():
    rec = FlightRecorder()
    rec.start_batch(2)
    assert rec.in_flight == 2
    rec.record("k1", "simulate", "local", 0.1, 2.0, 0.0)
    rec.record("k2", "cache-replay", "local", 0.0, 0.5, 2.0)
    rec.end_batch(3.0)
    assert rec.total_spans == 2
    assert rec.busy_s == pytest.approx(2.5)
    assert rec.queue_wait_s == pytest.approx(0.1)
    assert rec.in_flight == 0
    assert rec.batches == 1
    assert rec.utilization(jobs=1) == pytest.approx(2.5 / 3.0)
    assert rec.utilization(jobs=2) == pytest.approx(2.5 / 6.0)


def test_span_shape_and_ring_bound():
    rec = FlightRecorder(capacity=3)
    for i in range(5):
        span = rec.record("k%d" % i, "simulate", "local", 0.0, 1.0,
                          float(i))
        assert span["ended_s"] == pytest.approx(span["started_s"] + 1.0)
    spans = rec.spans()
    assert [s["key"] for s in spans] == ["k2", "k3", "k4"]
    assert rec.total_spans == 5
    assert rec.dropped == 2


def test_summary_is_json_native():
    rec = FlightRecorder()
    rec.start_batch(1)
    rec.record("k", "simulate", "pid:123", 0.0, 1.0, 0.0)
    rec.end_batch(1.0)
    summary = rec.summary(jobs=4)
    json.dumps(summary)
    assert summary["spans_recorded"] == 1
    assert summary["workers"] == ["pid:123"]
    assert summary["worker_utilization"] == pytest.approx(0.25)
    assert summary["spans"][0]["mode"] == "simulate"


def test_span_trace_events_one_lane_per_worker():
    rec = FlightRecorder()
    rec.record("a" * 64, "simulate", "pid:1", 0.0, 1.0, 0.0)
    rec.record("b" * 64, "simulate", "pid:2", 0.0, 1.0, 0.5)
    rec.record("c" * 64, "cache-replay", "pid:1", 0.0, 0.1, 1.0)
    events = span_trace_events(rec.spans())
    lanes = {e["tid"] for e in events if e["ph"] == "X"}
    assert len(lanes) == 2
    names = [e for e in events if e.get("name") == "thread_name"]
    assert len(names) == 2


# -- integration: RunEngine -------------------------------------------------


def test_engine_records_simulate_then_replay_spans(tmp_path):
    engine = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    engine.run([request()])
    spans = engine.recorder.spans()
    assert [s["mode"] for s in spans] == ["simulate"]
    assert spans[0]["worker"] == "local"
    assert spans[0]["outcome"] == "ok"

    warm = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    warm.run([request()])
    spans = warm.recorder.spans()
    assert [s["mode"] for s in spans] == ["cache-replay"]
    assert warm.cache_hit_ratio() == 1.0


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
    engine = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    events = []
    with observe(collect_manifests=True) as session:
        session.add_listener(lambda kind, p: events.append((kind, p)))
        engine.run([request()])
    kinds = [k for k, _ in events]
    assert "engine_span" in kinds
    assert "run" in kinds
    span = next(p for k, p in events if k == "engine_span")
    assert span["mode"] == "simulate"
    # spans stream for cache replays too
    events.clear()
    warm = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    with observe(collect_manifests=True) as session:
        session.add_listener(lambda kind, p: events.append((kind, p)))
        warm.run([request()])
    span = next(p for k, p in events if k == "engine_span")
    assert span["mode"] == "cache-replay"


def test_pool_spans_carry_worker_pids(tmp_path):
    engine = RunEngine(jobs=2, cache=RunCache(str(tmp_path)))
    engine.run([request(seed=11), request(seed=12)])
    spans = engine.recorder.spans()
    assert len(spans) == 2
    assert all(s["mode"] == "simulate" for s in spans)
    assert all(s["worker"].startswith("pid:") for s in spans)
    assert all(s["exec_s"] > 0 for s in spans)
    assert all(s["queue_wait_s"] >= 0 for s in spans)
    assert engine.recorder.utilization(engine.jobs) > 0


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
