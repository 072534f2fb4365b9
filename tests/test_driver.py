"""Run driver: warmup/measure phases, results, re-evaluation helpers."""

import pytest

from repro.cores.perf_model import CoreParams
from repro.sim.config import HierarchyConfig
from repro.sim.system import System
from repro.sim.driver import run_system, simulate
from repro.sim.sampling import SamplingPlan, PRESETS, from_env
from repro.workloads.generator import CoreTrace, generate_traces
from repro.workloads.scaleout import WEB_SEARCH


def tiny_system(cores=4):
    config = HierarchyConfig(
        name="drv", num_cores=cores, scale=1,
        l1_size_bytes=4096, l1_ways=4,
        llc_kind="shared", llc_size_bytes=64 * 1024, llc_ways=4,
        llc_latency=5, memory_queueing=False)
    return System(config, [CoreParams()] * cores)


def make_trace(core, n, start=0):
    return CoreTrace(core_id=core, blocks=list(range(start, start + n)),
                     flags=[0] * n, instr_per_event=3.0)


def test_run_system_counts_instructions():
    s = tiny_system()
    traces = [make_trace(0, 100), make_trace(1, 100, start=1000)]
    result = run_system(s, traces, warmup_events=40, measure_events=60)
    assert s.cores[0].instructions == 180  # 60 * 3.0
    assert result.instructions() == 360  # only driven cores count


def test_warmup_not_measured():
    s = tiny_system()
    traces = [make_trace(0, 100), make_trace(1, 100, start=1000)]
    run_system(s, traces, warmup_events=40, measure_events=60)
    counts = sum(s.cores[0].data_count)
    assert counts == 60


def test_trace_too_short_raises():
    s = tiny_system()
    traces = [make_trace(0, 50), make_trace(1, 50, start=1000)]
    with pytest.raises(ValueError):
        run_system(s, traces, warmup_events=40, measure_events=60)


def test_prewarm_prefix_respected():
    s = tiny_system()
    t0 = CoreTrace(0, list(range(120)), [0] * 120, 3.0,
                   prewarm_events=20)
    t1 = make_trace(1, 100, start=1000)
    run_system(s, [t0, t1], warmup_events=40, measure_events=60)
    assert sum(s.cores[0].data_count) == 60
    assert sum(s.cores[1].data_count) == 60


def test_performance_is_sum_of_ipcs():
    s = tiny_system()
    traces = [make_trace(0, 100), make_trace(1, 100, start=1000)]
    result = run_system(s, traces, 40, 60)
    expected = result.cores[0].ipc() + result.cores[1].ipc()
    assert result.performance() == pytest.approx(expected)


def test_llc_scale_reevaluation_monotonic():
    result = simulate(
        HierarchyConfig(name="t", num_cores=4, scale=512,
                        memory_queueing=False),
        WEB_SEARCH, SamplingPlan(500, 500), seed=1)
    p1 = result.performance_with_llc_scale(1.0)
    p2 = result.performance_with_llc_scale(2.0)
    assert p2 < p1
    assert p1 == pytest.approx(result.performance())


def test_rw_multiplier_reevaluation():
    result = simulate(
        HierarchyConfig(name="t", num_cores=4, scale=512,
                        memory_queueing=False),
        WEB_SEARCH, SamplingPlan(500, 500), seed=1)
    assert result.performance_with_rw_multiplier(1.0) == pytest.approx(
        result.performance())
    assert (result.performance_with_rw_multiplier(4.0)
            <= result.performance_with_rw_multiplier(1.0))


def test_llc_breakdown_sums_to_post_l1_accesses():
    result = simulate(
        HierarchyConfig(name="t", num_cores=4, scale=512,
                        memory_queueing=False),
        WEB_SEARCH, SamplingPlan(500, 500), seed=1)
    local, remote, miss = result.llc_breakdown()
    counts = result.level_counts()
    assert local + remote + miss == sum(counts[2:])


def test_simulate_determinism():
    cfg = HierarchyConfig(name="t", num_cores=4, scale=512,
                          memory_queueing=False)
    a = simulate(cfg, WEB_SEARCH, SamplingPlan(500, 500), seed=5)
    b = simulate(cfg, WEB_SEARCH, SamplingPlan(500, 500), seed=5)
    assert a.performance() == pytest.approx(b.performance())
    assert a.level_counts() == b.level_counts()


def test_sampling_presets():
    assert set(PRESETS) == {"quick", "standard", "full"}
    for p in PRESETS.values():
        assert p.measure_events > 0


def test_sampling_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLING", "quick")
    assert from_env() == PRESETS["quick"]
    monkeypatch.setenv("REPRO_SAMPLING", "bogus")
    with pytest.raises(ValueError):
        from_env()
    monkeypatch.delenv("REPRO_SAMPLING")
    assert from_env("full") == PRESETS["full"]


def test_sampling_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(-1, 10)
    with pytest.raises(ValueError):
        SamplingPlan(10, 0)
    assert SamplingPlan(10, 5).total_events == 15


def test_sampling_from_env_custom_pair(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLING", "40000:15000")
    assert from_env() == SamplingPlan(40000, 15000)


def test_sampling_custom_pair_errors_are_not_chained(monkeypatch):
    for bad in ("4000:", "a:b", "1000:-5", ":"):
        monkeypatch.setenv("REPRO_SAMPLING", bad)
        with pytest.raises(ValueError) as exc:
            from_env()
        assert "warmup:measure" in str(exc.value)
        assert exc.value.__cause__ is None  # raise ... from None
    monkeypatch.setenv("REPRO_SAMPLING", "nope")
    with pytest.raises(ValueError) as exc:
        from_env()
    assert exc.value.__cause__ is None


def test_run_wall_clock_and_throughput():
    s = tiny_system()
    traces = [make_trace(0, 100), make_trace(1, 100, start=1000)]
    result = run_system(s, traces, warmup_events=40, measure_events=60)
    assert result.warmup_wall_s > 0
    assert result.measure_wall_s > 0
    assert result.driven_events() == 120
    assert result.events_per_sec() > 0
