"""Observability overhead benchmark: what do the v2 layers cost?

Three timed variants of the same run (16 cores, scale 64, seed 7):

1. **off** -- no observation at all (the baseline every figure pays),
2. **telemetry** -- windowed sampler at a CI-realistic interval
   (5000 events),
3. **profile** -- the ``SIGPROF`` layer sampler behind ``--profile``,
   which wraps nothing and times its own signal handler.

``tests/test_oracle.py`` checks that observation leaves every result
bit-identical.  The telemetry gate is deliberately loose
(median slowdown under 50%): the sampler runs once per interleave
round so its honest cost is ~10-20% at this window density, but
shared CI runners jitter hard on sub-second phases.  The profile
variant is gated on the cost it measures itself: its handler's time
(``sampler_s``) at most 5% of the profiled wall clock in every rep.
Its slowdown is recorded but not gated, since on shared runners it is
below the run-to-run noise.  Everything lands in
``benchmarks/results/BENCH_telemetry.json``.
"""

from statistics import median

from repro.core.systems import system_config
from repro.obs.session import observe
from repro.sim.driver import simulate
from repro.sim.sampling import SamplingPlan
from repro.workloads.scaleout import SCALEOUT_WORKLOADS

NUM_CORES = 16
SCALE = 64
SEED = 7
PLAN = SamplingPlan(20_000, 30_000)
REPS = 5
TELEMETRY_EVERY = 5000

SPEC = SCALEOUT_WORKLOADS["web_search"]


def _run_off():
    return simulate(system_config("silo", num_cores=NUM_CORES,
                                  scale=SCALE), SPEC, PLAN, seed=SEED)


def _run_telemetry():
    with observe(telemetry_every=TELEMETRY_EVERY):
        return _run_off()


def test_telemetry_overhead(bench_extra, write_bench):
    profiles = []

    def run_profile():
        with observe(profile=True) as session:
            result = _run_off()
        profiles.append(session.profiler.report())
        return result

    variants = {"off": _run_off, "telemetry": _run_telemetry,
                "profile": run_profile}
    eps = {name: [] for name in variants}
    results = {}
    for _ in range(REPS):            # interleaved: same machine state
        for name, fn in variants.items():
            result = fn()
            eps[name].append(result.events_per_sec())
            results[name] = result

    medians = {name: median(vals) for name, vals in eps.items()}
    record = {
        "schema": "silo-repro-bench-telemetry/1",
        "num_cores": NUM_CORES, "scale": SCALE, "seed": SEED,
        "reps": REPS, "telemetry_every": TELEMETRY_EVERY,
        "plan": {"warmup_events": PLAN.warmup_events,
                 "measure_events": PLAN.measure_events},
        "variants": {
            name: {
                "events_per_sec": round(medians[name]),
                "slowdown": round(medians["off"] / medians[name], 3),
            }
            for name in variants
        },
        "telemetry_windows": len(results["telemetry"].telemetry.windows),
        "profile_sampler_fraction": round(
            max(p["sampler_s"] / p["wall_s"] for p in profiles), 5),
    }
    write_bench("BENCH_telemetry.json", record)
    bench_extra({"telemetry_overhead": record})

    print()
    for name, r in record["variants"].items():
        print("obs %-10s %9d ev/s  (%.2fx the baseline cost)"
              % (name, r["events_per_sec"], r["slowdown"]))

    assert results["telemetry"].telemetry.windows
    # the sampler ticks once per interleave round; the loose bound
    # absorbs shared-runner jitter on top of its ~10-20% honest cost
    assert record["variants"]["telemetry"]["slowdown"] <= 1.5
    assert all(p["samples"] > 0 for p in profiles)
    assert record["profile_sampler_fraction"] <= 0.05
