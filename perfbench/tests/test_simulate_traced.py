"""Tracing is inert: a traced simulate grid gives bit-identical rows,
and the wrappers come off afterwards."""

from perfbench import simulate
from perfbench.metrics import EVENT_LAYERS, ORGS, WORK_COUNTS


def _simulated(summary):
    """A summary's simulated content (its host clocks removed)."""
    d = summary.to_dict()
    del d["warmup_wall_s"], d["measure_wall_s"]
    return repr(d)


def test_traced_grid_is_bit_identical_and_reports_layers(monkeypatch):
    from repro.sim import engine as sim_engine

    monkeypatch.setattr(simulate, "PLAN", "1500:800")
    monkeypatch.setattr(simulate, "SCALE", 1024)
    run_before = sim_engine.RunEngine.run
    execute_before = sim_engine.execute_request
    rows, log, _raw, _wall, _laps = simulate.run_grid(11, 1)
    t_rows, t_log, _t_raw, _t_wall, _t_laps, tracer, sampler = \
        simulate.traced_grid(11, 1)
    assert simulate.rows_blob(t_rows) == simulate.rows_blob(rows)
    assert [_simulated(s) for _r, s in t_log] == \
        [_simulated(s) for _r, s in log]
    assert sim_engine.RunEngine.run is run_before
    assert sim_engine.execute_request is execute_before

    metrics = simulate.layer_metrics(tracer, sampler, t_log)
    for org in ORGS:
        assert metrics["sim.engine.events_per_s." + org] > 0
        for layer in EVENT_LAYERS:
            assert "%s.self_s.%s" % (layer, org) in metrics
        for name, _kind, _key in WORK_COUNTS:
            assert "%s.%s" % (name, org) in metrics
    assert metrics["caches.l1_hits.shared"] > 0
    assert metrics["workloads.events"] > 0
    names = {s.name for s in tracer.spans}
    assert {"experiments.fig10", "sim.engine.run", "sim.engine.execute",
            "sim.system.build", "workloads.generate", "sim.driver.run",
            "sim.engine.summarize", "energy.breakdown",
            "perfbench.calibrate"} <= names
    # Host calibration between points is in no layer's self time.
    assert metrics["experiments.self_s"] < 0.05


def test_checks_flag_a_lost_verdict_and_a_reference_mismatch():
    rows = [{"workload": "W", "system": "Baseline",
             "normalized_performance": 1.0},
            {"workload": "W", "system": "SILO",
             "normalized_performance": 0.9},
            {"workload": "Geomean", "system": "SILO",
             "normalized_performance": 0.9}]
    failed, lines = simulate.check(1, [rows], [], default_seed=7)
    assert failed == {1}
    assert any("does not beat" in line for line in lines)
    failed, _lines = simulate.check(7, [rows], [], default_seed=7)
    assert {0, 1} <= failed
