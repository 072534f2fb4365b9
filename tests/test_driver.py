"""Run driver: warmup/measure phases, results, re-evaluation helpers,
the interleave chunk, and what the drive loop reads."""

from unittest import mock

import pytest

from repro.core.systems import system_config
from repro.cores.perf_model import CoreParams
from repro.sim import driver
from repro.sim.config import HierarchyConfig
from repro.sim.system import System
from repro.sim.driver import (DEFAULT_CHUNK, _per_core_state, default_chunk,
                              run_system, simulate, use_chunk)
from repro.sim.sampling import SamplingPlan, PRESETS, from_env
from repro.workloads.generator import CoreTrace, generate_traces
from repro.workloads.scaleout import WEB_SEARCH
from tests.drive_reference import HOT_SPEC, reference_run_drive


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


# ---------------------------------------------------------------------------
# the interleave chunk and the drive loop's reads
# ---------------------------------------------------------------------------

HOT_PLAN = SamplingPlan(4_000, 2_000)


def test_use_chunk_override():
    assert default_chunk() == DEFAULT_CHUNK
    with use_chunk(64):
        assert default_chunk() == 64
    assert default_chunk() == DEFAULT_CHUNK


@pytest.mark.parametrize("bad", [2.7, True, "5", 0, -1])
def test_use_chunk_rejects_what_a_request_would(bad):
    # int() would install 2.7 as 2, True as 1 and "5" as 5.
    with pytest.raises(ValueError, match="chunk"):
        with use_chunk(bad):
            pass
    assert default_chunk() == DEFAULT_CHUNK


def test_decoded_lanes_are_reused_across_systems():
    # Two points on one workload get the same generated trace set, and
    # the drive loop of each system reads that set's own lists.
    config = system_config("silo", num_cores=4, scale=64)
    args = dict(num_cores=4, events_per_core=HOT_PLAN.total_events,
                scale=64, seed=7)
    traces, layout = generate_traces(HOT_SPEC, **args)
    again, layout_again = generate_traces(HOT_SPEC, **args)
    assert again is traces and layout_again is layout
    state_a = _per_core_state(System(config, [HOT_SPEC.core] * 4),
                              traces)
    state_b = _per_core_state(System(config, [HOT_SPEC.core] * 4),
                              again)
    for tr, a, b in zip(traces, state_a, state_b):
        assert a[2] is b[2] is tr.blocks
        assert a[3] is b[3] is tr.flags


def _silo_run(chunk, num_cores=4, reference=False):
    """A SILO run of the L1-resident spec; ``reference`` swaps the
    drive loop for the reference loop."""
    config = system_config("silo", num_cores=num_cores, scale=64)
    drive = reference_run_drive if reference else driver._drive
    with mock.patch.object(driver, "_drive", drive):
        return simulate(config, HOT_SPEC, HOT_PLAN, seed=7, chunk=chunk)


def test_single_core_results_are_chunk_invariant():
    # With one core the interleave grain cannot change event order, so
    # results must be exactly identical across chunk sizes -- with the
    # fast path or the reference loop driving.
    runs = {}
    for chunk in (50, 200, 800):
        for reference in (False, True):
            r = _silo_run(chunk, num_cores=1, reference=reference)
            runs[(chunk, reference)] = (r.performance(),
                                        r.system.stats())
    first = runs[(50, False)]
    assert all(v == first for v in runs.values())


def test_multi_core_chunk_drift_is_bounded():
    # Chunk size changes multi-core interleaving, which legitimately
    # perturbs contention; the measured metric must stay close.
    perf = {chunk: _silo_run(chunk).performance() for chunk in (50, 800)}
    assert perf[800] == pytest.approx(perf[50], rel=0.10)
