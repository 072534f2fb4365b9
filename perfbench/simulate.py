"""The ``simulate`` workload: the Fig. 10 grid, Baseline and SILO over
the five scale-out workloads, under an installed serial, uncached
``RunEngine``.

The modelled caches start empty; each trace's prewarm pass and the
plan's warm-up window fill them, and statistics come from the measure
window only.  Host time covers both phases, because users pay for both.

The engine resolves the grid's batch one point at a time with a host
calibration loop after each point (``common.HostClock``), so every
point's time is scaled by the host's speed around that point.
"""

import json
import os
import resource
import statistics
import subprocess
import sys

from perfbench import common, spans
from perfbench.metrics import EVENT_LAYERS, ORGS, WORK_COUNTS

SYSTEMS = ("baseline", "silo")
SCALE = 256
PLAN = "quick"
#: Fresh interpreters timed for setup_s (the median is reported).
SETUP_REPS = 9
#: Host seconds one grid is counted as (it takes 9-35 s on a 2-vCPU
#: host): ``--seconds`` buys that many seconds' worth of whole grids,
#: at least one, so the timed work is fixed for a given ``--seconds``.
GRID_S = 20
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference_rows.json")

_SETUP_PROGRAM = """
import time
t0 = time.perf_counter()
import repro.experiments
from repro.sim.engine import RunEngine
RunEngine(jobs=1, cache=None)
print(repr(time.perf_counter() - t0))
"""


def measure_setup(reps=SETUP_REPS):
    """Seconds from a fresh interpreter's first import to a constructed
    engine (``code_fingerprint`` hashes every source file), ``reps``
    times, each between two host calibrations.  Returns the raw and the
    reference-host samples."""
    clock = common.HostClock()
    raw, ref = [], []
    for _ in range(reps):
        clock.start()
        out = subprocess.run([sys.executable, "-c", _SETUP_PROGRAM],
                             cwd=common.ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        lap_raw, lap_ref = clock.lap()
        seconds = float(out.stdout.split()[-1])
        raw.append(seconds)
        ref.append(seconds * lap_ref / lap_raw)
    return raw, ref


def _org(config):
    from repro.sim.config import LLC_PRIVATE_VAULT
    return "silo" if config.llc_kind == LLC_PRIVATE_VAULT else "shared"


def new_engine(after_point):
    """A serial, cache-less engine that resolves a batch one point at a
    time, calls ``after_point()`` after each, and keeps every (request,
    summary) pair it resolves, for the per-point checks."""
    from repro.sim.engine import RunEngine

    class RecordingEngine(RunEngine):
        def run(self, requests):
            summaries = []
            for req in requests:
                summaries += super().run([req])
                self.log.append((req, summaries[-1]))
                after_point()
            return summaries

    engine = RecordingEngine(jobs=1, cache=None)
    engine.log = []
    return engine


def run_grid(seed, rounds):
    """The timed phase: ``rounds`` grids of the same seed, each under a
    fresh engine.  Returns ``(rows of every round, [(request, summary)]
    of every point, raw seconds, reference-host seconds, [(raw,
    reference-host) seconds of each stretch]``."""
    import repro.experiments
    from repro.sim.engine import use_engine
    from repro.sim.sampling import parse_plan

    all_rows = []
    log = []
    laps = []
    clock = common.HostClock()

    def lap():
        laps.append(clock.lap())

    clock.start()
    for _ in range(rounds):
        engine = new_engine(lap)
        with use_engine(engine):
            all_rows.append(repro.experiments.fig10_scaleout(
                plan=parse_plan(PLAN), scale=SCALE, seed=seed,
                systems=SYSTEMS))
        lap()
        log.extend(engine.log)
    return (all_rows, log, sum(raw for raw, _ref in laps),
            sum(ref for _raw, ref in laps), laps)


def rows_blob(rows):
    """Exact text form of result rows (floats by repr)."""
    return json.dumps(rows, sort_keys=True)


def check(seed, all_rows, log, default_seed):
    """Indexes of failed points and report lines.

    A point fails when its level counts do not sum to its driven
    events, when SILO does not beat Baseline on its workload (the
    paper's verdict), when a later round's row differs from the first
    round's, or -- for the default seed -- when its row is not
    bit-identical to the recorded reference row."""
    failed = set()
    lines = []
    rows = all_rows[0]
    per_round = len(log) // len(all_rows)
    for r, other in enumerate(all_rows[1:], 1):
        if rows_blob(other) != rows_blob(rows):
            failed.update(range(r * per_round, (r + 1) * per_round))
            lines.append("round %d rows differ from round 0" % r)
    for i, (_req, summary) in enumerate(log):
        if sum(summary.level_counts()) != summary.driven_events():
            failed.add(i)
            lines.append("point %d: level counts %d != driven events %d"
                         % (i, sum(summary.level_counts()),
                            summary.driven_events()))
    point_rows = [r for r in rows if r["workload"] != "Geomean"]
    for i, row in enumerate(point_rows):
        if row["system"] == "SILO" and row["normalized_performance"] <= 1:
            failed.add(i)
            lines.append("SILO does not beat Baseline on %s (%.4f)"
                         % (row["workload"], row["normalized_performance"]))
    if seed == default_seed:
        with open(REFERENCE) as f:
            ref = json.load(f)
        ref_rows = [r for r in ref["rows"] if r["workload"] != "Geomean"]
        for i, (row, want) in enumerate(zip(point_rows, ref_rows)):
            if rows_blob(row) != rows_blob(want):
                failed.update((i - i % 2, i - i % 2 + 1))
                lines.append("row %d differs from the reference: %r"
                             % (i, row))
        if len(point_rows) != len(ref_rows):
            failed.update(range(len(log)))
            lines.append("row count differs from the reference")
        else:
            lines.append("rows bit-identical to the reference rows: %s"
                         % (rows_blob(rows) == rows_blob(ref["rows"])))
    geo = [r for r in rows if r["workload"] == "Geomean"][0]
    lines.append("fig10 SILO geomean %+.1f%% over Baseline "
                 "(paper: %+.0f%%)"
                 % (100 * (geo["normalized_performance"] - 1),
                    100 * (common.PAPER_FIG10_GEOMEAN - 1)))
    return failed, lines


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------


def _install(tracer, sampler):
    import repro.experiments
    from repro.energy.model import EnergyModel
    from repro.sim import engine as sim_engine
    from repro.sim.system import System
    from repro.workloads import generator

    def fastpath_note(args, _kwargs, result):
        sf = result.system.shadow_filter
        summary = sf.summary() if sf is not None else {}
        return {"org": _org(args[0].config),
                "retired": summary.get("retired_events", 0),
                "total": summary.get("total_events",
                                     result.driven_events()),
                "bailed": bool(summary.get("bailed", False))}

    run_system = sim_engine.run_system

    def sampled_run_system(system, *args, **kwargs):
        sampler.context = _org(system.config)
        try:
            return run_system(system, *args, **kwargs)
        finally:
            sampler.context = None

    tracer.patch(sim_engine, "run_system", sampled_run_system)
    tracer.wrap(sim_engine, "run_system", "sim.driver.run",
                note=fastpath_note)
    tracer.wrap(repro.experiments, "fig10_scaleout", "experiments.fig10")
    tracer.wrap(sim_engine.RunEngine, "run", "sim.engine.run")
    tracer.wrap(sim_engine.RunRequest, "key", "sim.engine.key")
    tracer.wrap(sim_engine, "execute_request", "sim.engine.execute",
                new_rid=True,
                note=lambda a, _k, _r: {"org": _org(a[0].config)})
    tracer.wrap(System, "__init__", "sim.system.build")
    tracer.wrap(generator, "generate_traces", "workloads.generate",
                note=lambda _a, _k, r: {"events": sum(len(t)
                                                      for t in r[0])})
    tracer.wrap(sim_engine, "summarize", "sim.engine.summarize")
    tracer.wrap(EnergyModel, "breakdown", "energy.breakdown")
    # A child span, so host calibration is in no layer's self time.
    tracer.wrap(common, "calibration_loop", "perfbench.calibrate")


def traced_grid(seed, rounds):
    """The timed phase again, under wrappers and the sampler.  Returns
    :func:`run_grid`'s results plus the tracer and the sampler."""
    tracer = spans.Tracer()
    sampler = spans.Sampler()
    _install(tracer, sampler)
    sampler.start()
    try:
        return run_grid(seed, rounds) + (tracer, sampler)
    finally:
        sampler.stop()
        tracer.uninstall()


def layer_metrics(tracer, sampler, log):
    """Per-layer metrics of a traced grid (BENCHMARK.json's per_layer)."""
    sp = tracer.spans
    self_s = spans.self_times(sp)

    def total(name, org=None):
        return sum(s.end - s.start for s in sp if s.name == name
                   and (org is None or s.attrs.get("org") == org))

    def self_total(*names):
        return sum(self_s[s.sid] for s in sp if s.name in names)

    out = {
        "experiments.self_s": self_total("experiments.fig10"),
        "workloads.generate_s": total("workloads.generate"),
        "workloads.events": sum(s.attrs["events"] for s in sp
                                if s.name == "workloads.generate"),
        "sim.system.build_s": total("sim.system.build"),
        "sim.driver.warmup_s": sum(s.warmup_wall_s for _r, s in log),
        "sim.driver.measure_s": sum(s.measure_wall_s for _r, s in log),
        "sim.engine.summarize_s": self_total("sim.engine.summarize"),
        "energy.breakdown_s": total("energy.breakdown"),
        "sim.engine.key_s": total("sim.engine.key"),
        "sim.engine.self_s": self_total("sim.engine.run",
                                        "sim.engine.execute"),
    }
    runs = [s for s in sp if s.name == "sim.driver.run"]
    out["sim.fastpath.bails"] = sum(s.attrs["bailed"] for s in runs)
    for org in ORGS:
        org_log = [s for r, s in log if _org(r.config) == org]
        events = sum(s.driven_events() for s in org_log)
        out["sim.engine.events_per_s." + org] = \
            events / total("sim.engine.execute", org)
        org_runs = [s for s in runs if s.attrs["org"] == org]
        out["sim.fastpath.retired_fraction." + org] = (
            sum(s.attrs["retired"] for s in org_runs)
            / sum(s.attrs["total"] for s in org_runs))
        drive_s = total("sim.driver.run", org)
        shares = sampler.shares(org)
        for layer in EVENT_LAYERS:
            out["%s.self_s.%s" % (layer, org)] = \
                drive_s * shares.get(layer, 0.0)
        for name, kind, key in WORK_COUNTS:
            out["%s.%s" % (name, org)] = sum(
                s.level_counts()[key] if kind == "level"
                else s.counters[key] for s in org_log)
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(seed, seconds, trace, default_seed):
    """Run the workload; returns ``(result dict, report lines, spans)``."""
    rounds = max(1, round(seconds / GRID_S))
    setup_raw, setup = measure_setup()
    import repro.experiments  # noqa: F401  (the timed grid's imports)
    rows, log, raw_wall, wall, laps = run_grid(seed, rounds)
    failed, lines = check(seed, rows, log, default_seed)
    lines.insert(0, "setup samples raw (s): %s; median %.4f"
                 % (", ".join("%.4f" % v for v in setup_raw),
                    statistics.median(setup_raw)))
    lines.insert(1, "setup samples reference-host (s): %s"
                 % ", ".join("%.4f" % v for v in setup))
    lines.insert(2, "timed phase raw %.4f s, reference-host %.4f s"
                 % (raw_wall, wall))
    lines.insert(3, "stretches raw/reference-host (s): %s" % ", ".join(
        "%.3f/%.3f" % lap for lap in laps))
    events = sum(s.driven_events() for _r, s in log)
    result = {"attempted": len(log), "failed": len(failed)}
    dumped = None
    if trace:
        t_rows, t_log, _t_raw, t_wall, _laps, tracer, sampler = \
            traced_grid(seed, rounds)
        metrics = layer_metrics(tracer, sampler, t_log)
        metrics["trace.overhead"] = t_wall / wall
        if rows_blob(t_rows) != rows_blob(rows):
            result["failed"] = len(log)
            lines.append("traced rows differ from untraced rows")
        else:
            lines.append("traced rows bit-identical to untraced rows")
        lines.append("sampler samples: %s" % {
            org: sum(sampler.counts[org].values()) for org in ORGS})
        dumped = tracer.dump()
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "ops_per_s": len(log) / wall,
            "events_per_s": events / wall,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result["metrics"] = metrics
    result["correct"] = result["failed"] == 0
    return result, lines, dumped


def write_reference(seed):
    """Record the reference rows for ``seed`` (run from the checkout
    root as ``python3 -m perfbench.simulate``); only a change that is
    meant to alter simulated results may re-record them."""
    common.prepare_checkout()
    all_rows = run_grid(seed, 1)[0]
    with open(REFERENCE, "w") as f:
        json.dump({"seed": seed, "scale": SCALE, "plan": PLAN,
                   "systems": list(SYSTEMS), "rows": all_rows[0]},
                  f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    from perfbench.run import DEFAULT_SEED
    write_reference(DEFAULT_SEED)
