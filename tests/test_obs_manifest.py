"""Run-provenance manifests and observation sessions."""

import json
import os
import re

import pytest

from repro.faults import FaultPlan
from repro.obs.manifest import (git_sha, write_manifest,
                                MANIFEST_SCHEMA)
from repro.obs.session import observe, current_session
from repro.sim.config import HierarchyConfig
from repro.sim.driver import simulate
from repro.sim.sampling import SamplingPlan

PLAN = SamplingPlan(1200, 600)
CFG = HierarchyConfig(name="man", num_cores=4, scale=512,
                      llc_kind="private_vault")
LIVE_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "live_manifest_golden.json")
#: Recorded live runs: (LLC organization, fault plan).
LIVE_CASES = {
    "silo": ("private_vault", None),
    "silo_faults": ("private_vault",
                    FaultPlan(seed=3, data_flip_rate=0.05,
                              stall_rate=0.01, double_bit_fraction=0.5)),
    "shared": ("shared", None),
}


def run(seed=4):
    from repro.workloads.scaleout import WEB_SEARCH
    return simulate(CFG, WEB_SEARCH, PLAN, seed=seed)


def test_git_sha_shape():
    sha = git_sha()
    assert sha is None or re.fullmatch(r"[0-9a-f]{40}", sha)


def test_git_sha_none_outside_repo(tmp_path):
    assert git_sha(str(tmp_path)) is None


def test_run_manifest_fields():
    result = run()
    m = result.manifest()
    assert m["schema"] == MANIFEST_SCHEMA
    assert m["config"]["name"] == "man"
    assert m["config"]["llc_kind"] == "private_vault"
    assert m["scale"] == 512
    assert m["seed"] == 4
    assert m["sampling"] == {"warmup_events": 1200,
                             "measure_events": 600}
    assert m["wall_clock"]["warmup_s"] > 0
    assert m["wall_clock"]["measure_s"] > 0
    assert m["throughput"]["driven_events"] == 600 * 4
    assert m["throughput"]["events_per_sec"] > 0
    assert m["performance"] > 0
    pct = m["latency_percentiles"]
    assert pct, "some level saw exposed latency"
    for level in pct.values():
        assert level["p50"] <= level["p95"] <= level["p99"]
    assert "stats" not in m
    assert "trace" not in m  # no tracer attached


def _deterministic(manifest):
    """A manifest as JSON data, its commit and wall-clock fields
    removed."""
    m = json.loads(json.dumps(manifest))
    m.pop("git_sha")
    m.pop("wall_clock")
    m["throughput"].pop("events_per_sec")
    for window in m.get("telemetry", {}).get("series", []):
        window.pop("wall_s")
        window.pop("window_wall_s")
    return m


@pytest.mark.parametrize("case", sorted(LIVE_CASES))
def test_live_manifest_keeps_every_recorded_field(case):
    """A live run's manifest, under a session with a tracer and
    telemetry, keeps every key and value recorded in
    tests/live_manifest_golden.json (commit and wall-clock fields
    aside), written when live runs had a manifest builder of their
    own; it adds the ``engine`` block every summary's manifest has."""
    from repro.workloads.scaleout import WEB_SEARCH
    kind, faults = LIVE_CASES[case]
    config = HierarchyConfig(name="man", num_cores=4, scale=512,
                             llc_kind=kind)
    with observe(trace_capacity=256, telemetry_every=300):
        result = simulate(config, WEB_SEARCH, PLAN, seed=4,
                          faults=faults)
    m = _deterministic(result.manifest())
    assert m.pop("engine") == {"request_key": "", "mode": "simulate"}
    with open(LIVE_GOLDEN) as f:
        assert m == json.load(f)[case]


def test_manifest_is_json_serializable(tmp_path):
    path = write_manifest(run(seed=1).manifest(), str(tmp_path), "m")
    doc = json.loads(open(path).read())
    assert doc["seed"] == 1


def test_session_collects_runs_and_attaches_tracer():
    assert current_session() is None
    with observe(trace_capacity=256, collect_manifests=True) as s:
        assert current_session() is s
        run(seed=5)
        run(seed=6)
    assert current_session() is None
    assert [r["seed"] for r in s.runs] == [5, 6]
    assert s.last_tracer is not None
    assert s.runs[-1]["trace"]["emitted"] == s.last_tracer.emitted


def test_inactive_session_records_nothing():
    result = run()
    assert result.system.tracer is None
    with observe() as s:  # nothing requested
        assert not s.active
        run()
    assert s.runs == []
