"""Windowed telemetry: window/delta bookkeeping, phase detection on a
phase-changing workload, and the three exporters."""

import json
import math

import pytest

from repro.obs.session import observe
from repro.obs.telemetry import (counter_values, detect_phases,
                                 export_chrome_trace, export_jsonl,
                                 export_prometheus, interval_from_env,
                                 TelemetrySampler)
from repro.sim.config import HierarchyConfig
from repro.sim.driver import run_system, simulate
from repro.sim.sampling import SamplingPlan
from repro.sim.system import System
from repro.workloads.generator import CoreTrace
from repro.workloads.scaleout import WEB_SEARCH

PLAN = SamplingPlan(1500, 800)


def config(kind="private_vault"):
    return HierarchyConfig(name="telem", num_cores=4, scale=512,
                           llc_kind=kind)


def sampled_run(kind="private_vault", every=400, seed=3):
    with observe(telemetry_every=every) as session:
        result = simulate(config(kind), WEB_SEARCH, PLAN, seed=seed)
    assert session.telemetry == [result.telemetry]
    return result


# -- interval resolution ----------------------------------------------------


def test_interval_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    assert interval_from_env() == 0
    monkeypatch.setenv("REPRO_TELEMETRY", "5000")
    assert interval_from_env() == 5000
    monkeypatch.setenv("REPRO_TELEMETRY", "")
    assert interval_from_env() == 0
    monkeypatch.setenv("REPRO_TELEMETRY", "nope")
    with pytest.raises(ValueError):
        interval_from_env()
    monkeypatch.setenv("REPRO_TELEMETRY", "-3")
    with pytest.raises(ValueError):
        interval_from_env()


def test_sampler_rejects_bad_interval():
    system = System(config(), [WEB_SEARCH.core] * 4)
    with pytest.raises(ValueError):
        TelemetrySampler(system, 0)


# -- window bookkeeping -----------------------------------------------------


@pytest.mark.parametrize("kind", ["shared", "private_vault"])
def test_windows_cover_the_measure_phase_exactly(kind):
    result = sampled_run(kind)
    t = result.telemetry
    assert t.finished
    windows = t.windows
    assert windows
    driven = result.driven_events()
    assert windows[-1]["events"] == driven
    assert sum(w["window_events"] for w in windows) == driven
    assert [w["index"] for w in windows] == list(range(len(windows)))
    # cumulative events strictly increase; wall clock is monotone
    for a, b in zip(windows, windows[1:]):
        assert b["events"] > a["events"]
        assert b["wall_s"] >= a["wall_s"]


def test_window_deltas_sum_to_final_counters():
    result = sampled_run()
    t = result.telemetry
    s = result.system
    assert sum(w["llc_accesses"] for w in t.windows) == s.llc_accesses
    assert (sum(w["memory_accesses"] for w in t.windows)
            == s.memory.reads + s.memory.writes)
    # per-core events add up to the driven total
    per_core = [0] * s.num_cores
    for w in t.windows:
        for c, pc in enumerate(w["per_core"]):
            per_core[c] += pc["events"]
    assert sum(per_core) == result.driven_events()


def test_window_rates_are_fractions():
    t = sampled_run().telemetry
    for w in t.windows:
        assert 0.0 <= w["miss_rate"] <= 1.0
        assert 0.0 <= w["l1_hit_rate"] <= 1.0
        assert math.isclose(w["miss_rate"] + w["l1_hit_rate"], 1.0)
        for pc in w["per_core"]:
            assert 0.0 <= pc["miss_rate"] <= 1.0


@pytest.mark.parametrize("kind,banks", [("shared", 4),
                                        ("private_vault", 4)])
def test_vault_heatmap_series_shape(kind, banks):
    t = sampled_run(kind).telemetry
    for w in t.windows:
        assert len(w["vault_occupancy"]) == banks
        assert all(0.0 <= occ <= 1.0 for occ in w["vault_occupancy"])
        assert len(w["vault_traffic"]) == 4
        assert all(v >= 0 for v in w["vault_traffic"])


def test_counter_values_excludes_formulas():
    system = System(config(), [WEB_SEARCH.core] * 4)
    values = counter_values(system.stats)
    assert "system.caches.llc_accesses" in values
    # memory.accesses is a formula (reads + writes): not a counter
    assert "system.memory.accesses" not in values
    assert "system.memory.reads" in values


def test_summary_shape():
    t = sampled_run().telemetry
    s = t.summary()
    assert s["interval_events"] == 400
    assert s["windows"] == len(t.windows)
    assert s["series"] == t.windows
    assert s["phases"] == t.phases
    json.dumps(s)  # manifest-ready


# -- phase detection --------------------------------------------------------


def test_detect_phases_finds_a_shift():
    series = [0.05] * 8 + [0.6] * 8
    phases = detect_phases(series)
    assert len(phases) == 2
    assert phases[0]["end"] == 8
    assert phases[1]["start"] == 8
    assert phases[0]["mean"] < phases[1]["mean"]


def test_detect_phases_tolerates_noise():
    series = [0.30, 0.31, 0.29, 0.305, 0.295, 0.31, 0.29]
    assert len(detect_phases(series)) == 1


def test_detect_phases_empty_and_single():
    assert detect_phases([]) == []
    (only,) = detect_phases([0.4])
    assert (only["start"], only["end"]) == (0, 1)


def test_phase_boundaries_partition_the_series():
    series = [0.05] * 5 + [0.5] * 5 + [0.05] * 5
    phases = detect_phases(series)
    assert len(phases) >= 3
    assert phases[0]["start"] == 0
    assert phases[-1]["end"] == len(series)
    for a, b in zip(phases, phases[1:]):
        assert a["end"] == b["start"]


def _phase_changing_traces(num_cores, warmup, hot, sweep):
    """Hand-built traces: a hot loop over 16 blocks (all L1 hits once
    warm) followed by a never-repeating stride (every access a
    compulsory miss) -- a textbook two-phase run."""
    traces = []
    for core in range(num_cores):
        blocks = [b % 16 for b in range(warmup + hot)]
        base = 10_000 * (core + 1)
        blocks += [base + i for i in range(sweep)]
        traces.append(CoreTrace(core_id=core, blocks=blocks,
                                flags=[0] * len(blocks),
                                instr_per_event=1.0))
    return traces


def test_phase_changing_workload_detects_two_phases():
    num_cores, warmup, hot, sweep = 4, 200, 2000, 2000
    system = System(config(), [WEB_SEARCH.core] * num_cores)
    traces = _phase_changing_traces(num_cores, warmup, hot, sweep)
    with observe(telemetry_every=1600):
        result = run_system(system, traces, warmup, hot + sweep)
    t = result.telemetry
    assert len(t.windows) >= 4
    assert len(t.phases) >= 2, t.phases
    # the sweep phase misses far more than the hot loop
    assert t.phases[-1]["mean"] > t.phases[0]["mean"] + 0.3


# -- exporters --------------------------------------------------------------


def test_export_jsonl_parses_line_by_line():
    result = sampled_run()
    text = export_jsonl([result.telemetry])
    lines = text.strip().splitlines()
    assert len(lines) == len(result.telemetry.windows)
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["run"] == 0
        assert rec["index"] == i


def test_export_jsonl_empty():
    assert export_jsonl([]) == ""


def test_export_prometheus_exposition_format():
    result = sampled_run()
    text = export_prometheus([result.telemetry])
    assert "# HELP silo_miss_rate " in text
    assert "# TYPE silo_miss_rate gauge" in text
    for line in text.strip().splitlines():
        if line.startswith("#"):
            parts = line.split()
            assert parts[1] in ("HELP", "TYPE")
            continue
        name_labels, value = line.rsplit(" ", 1)
        float(value)
        assert "{" in name_labels and name_labels.endswith("}")
        assert name_labels.startswith("silo_")
    assert 'silo_core_miss_rate{run="0",core="3"}' in text
    assert 'silo_vault_occupancy{run="0",vault="0"}' in text


def test_export_chrome_trace_opens_in_perfetto_shape():
    result = sampled_run()
    doc = export_chrome_trace([result.telemetry])
    doc = json.loads(json.dumps(doc))  # fully JSON-native
    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    phases_seen = set()
    for ev in events:
        assert ev["ph"] in ("M", "C", "X")
        assert isinstance(ev["pid"], int)
        phases_seen.add(ev["ph"])
        if ev["ph"] in ("C", "X"):
            assert ev["ts"] >= 0
        if ev["ph"] == "X":
            assert ev["dur"] > 0
    assert {"M", "C", "X"} <= phases_seen


def test_export_chrome_trace_includes_profile_and_engine_spans():
    result = sampled_run()
    report = {"regions": [
        {"path": "measure", "name": "measure", "depth": 0, "calls": 1,
         "inclusive_s": 1.0, "exclusive_s": 0.4},
        {"path": "measure.access", "name": "access", "depth": 1,
         "calls": 10, "inclusive_s": 0.6, "exclusive_s": 0.6}]}
    spans = [{"key": "k" * 64, "mode": "simulate", "worker": "local",
              "queue_wait_s": 0.0, "exec_s": 0.5, "started_s": 0.1,
              "ended_s": 0.6, "outcome": "ok"}]
    doc = export_chrome_trace([result.telemetry], report, spans)
    pids = {ev["pid"] for ev in doc["traceEvents"]}
    assert {1, 2, 100} <= pids  # profile, engine, telemetry run 0
