"""Self-profiler: region-tree arithmetic, instrumentation coverage,
report rendering and the synthetic flame chart."""

import json

import pytest

from repro.obs.profile import (Profiler, instrument, render_report,
                               trace_events)
from repro.obs.session import observe
from repro.sim.config import HierarchyConfig
from repro.sim.driver import simulate
from repro.sim.sampling import SamplingPlan
from repro.workloads.scaleout import WEB_SEARCH

PLAN = SamplingPlan(1500, 800)


def config(kind="private_vault"):
    return HierarchyConfig(name="prof", num_cores=4, scale=512,
                           llc_kind=kind)


def profiled_run(kind="private_vault", seed=3):
    with observe(profile=True) as session:
        result = simulate(config(kind), WEB_SEARCH, PLAN, seed=seed)
    return result, session.profiler


# -- region tree ------------------------------------------------------------


def test_region_nesting_and_counts():
    p = Profiler()
    with p.region("outer"):
        with p.region("inner"):
            pass
        with p.region("inner"):
            pass
    report = p.report()
    by_path = {r["path"]: r for r in report["regions"]}
    assert set(by_path) == {"outer", "outer.inner"}
    assert by_path["outer"]["calls"] == 1
    assert by_path["outer.inner"]["calls"] == 2
    assert by_path["outer.inner"]["depth"] == 1


def test_exclusive_is_inclusive_minus_children():
    p = Profiler()
    with p.region("a"):
        with p.region("b"):
            pass
    p.stop()
    by_path = {r["path"]: r for r in p.report()["regions"]}
    a, b = by_path["a"], by_path["a.b"]
    assert a["inclusive_s"] >= b["inclusive_s"]
    assert a["exclusive_s"] == pytest.approx(
        a["inclusive_s"] - b["inclusive_s"])
    assert b["exclusive_s"] == pytest.approx(b["inclusive_s"])


def test_wrap_nests_under_open_region():
    p = Profiler()
    fn = p.wrap("leaf", lambda x: x * 2)
    with p.region("outer"):
        assert fn(21) == 42
    paths = {r["path"] for r in p.report()["regions"]}
    assert "outer.leaf" in paths


def test_wrap_propagates_exceptions_and_still_accounts():
    p = Profiler()

    def boom():
        raise RuntimeError("nope")

    fn = p.wrap("bad", boom)
    with pytest.raises(RuntimeError):
        fn()
    by_path = {r["path"]: r for r in p.report()["regions"]}
    assert by_path["bad"]["calls"] == 1


def test_stop_freezes_wall_clock():
    p = Profiler()
    p.stop()
    w1 = p.wall_s()
    p.stop()  # idempotent
    assert p.wall_s() == w1


# -- instrumented simulation ------------------------------------------------


@pytest.mark.parametrize("kind", ["shared", "private_vault"])
def test_instrumented_run_has_subsystem_regions(kind):
    result, profiler = profiled_run(kind)
    report = profiler.report()
    paths = {r["path"] for r in report["regions"]}
    assert "setup" in paths
    assert "warmup" in paths and "measure" in paths
    miss = "nuca" if kind == "shared" else "vault"
    assert any(p.endswith(".access") for p in paths)
    assert any(p.endswith(".%s" % miss) for p in paths), paths
    assert any(p.endswith(".memory") for p in paths)
    assert any(p.endswith(".noc") for p in paths)
    assert any(p.endswith(".directory") for p in paths)
    assert report["driven_events"] == result.driven_events()


def test_report_covers_most_of_the_wall_clock():
    _result, profiler = profiled_run()
    report = profiler.report()
    # acceptance asks >= 95% on a real CLI run; leave slack for CI jitter
    assert report["covered_fraction"] >= 0.90
    assert report["covered_fraction"] <= 1.0 + 1e-9
    assert report["wall_s"] > 0
    assert report["events_per_sec"] > 0


def test_report_is_json_native():
    _result, profiler = profiled_run()
    json.dumps(profiler.report())


# -- rendering --------------------------------------------------------------


def test_render_report_table():
    _result, profiler = profiled_run()
    report = profiler.report()
    text = render_report(report)
    assert text.startswith("# self-profile:")
    assert "incl_s" in text and "excl%" in text
    assert "measure" in text


def test_trace_events_flame_chart_layout():
    _result, profiler = profiled_run()
    report = profiler.report()
    events = trace_events(report)
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == len(report["regions"])
    for ev in spans:
        assert ev["dur"] >= 0
        assert ev["ts"] >= 0
    # children start no earlier than their parent
    by_path = {r["path"]: r for r in report["regions"]}
    starts = {}
    for ev, r in zip(spans, report["regions"]):
        starts[r["path"]] = ev["ts"]
    for path in by_path:
        parent = path.rpartition(".")[0]
        if parent:
            assert starts[path] >= starts[parent] - 1e-6


# -- inertness --------------------------------------------------------------


def test_profiled_run_is_bit_identical():
    plain = simulate(config(), WEB_SEARCH, PLAN, seed=5)
    profiled, _ = profiled_run(seed=5)
    assert profiled.performance() == plain.performance()
    assert profiled.level_counts() == plain.level_counts()
    assert (profiled.system.memory.reads, profiled.system.memory.writes) \
        == (plain.system.memory.reads, plain.system.memory.writes)
