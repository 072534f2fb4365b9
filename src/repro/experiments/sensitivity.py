"""Motivation studies: LLC capacity and latency sensitivity (Sec. II).

Fig. 1 sweeps the shared LLC capacity from 8 MB to 1 GB at the
baseline's access latency ("for larger LLC capacities, the access
latency is unchanged from the baseline design").  Fig. 2 re-evaluates
each capacity under +0%..+100% LLC access latency; because the run
summaries keep raw per-level latency sums, the latency sweep is
closed-form over one simulated point per capacity -- and Fig. 2's 8 MB
and 64-1024 MB points are the same points Fig. 1 sweeps, so a shared
run cache simulates them once across both figures.
"""

from repro import params as P
from repro.core.systems import baseline_config
from repro.workloads.scaleout import SCALEOUT_LABELS
from repro.experiments.common import (run_points, geomean, DEFAULT_SCALE,
                                      DEFAULT_SEED)

#: Fig. 1 x-axis.
CAPACITIES_MB = (8, 16, 32, 64, 128, 256, 512, 1024)

#: Fig. 2 capacities and latency-increase points.
FIG2_CAPACITIES_MB = (64, 128, 256, 512, 1024)
FIG2_LATENCY_INCREASES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def _capacity_systems(capacities_mb, scale):
    """The baseline at each LLC capacity, keyed by capacity in MB."""
    return {cap: baseline_config(scale=scale, llc_size_bytes=cap * P.MB,
                                 name="baseline_%dmb" % cap)
            for cap in capacities_mb}


def fig1_capacity(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                  workloads=None, capacities_mb=CAPACITIES_MB):
    """Fig. 1: performance vs. LLC capacity at fixed latency, per
    workload, normalized to the 8 MB baseline."""
    grid = run_points(_capacity_systems(capacities_mb, scale), plan, seed,
                      workloads)
    rows = []
    for name, results in grid.items():
        base = results[capacities_mb[0]].performance()
        for cap, result in results.items():
            rows.append({
                "workload": SCALEOUT_LABELS.get(name, name),
                "capacity_mb": cap,
                "normalized_performance": result.performance() / base,
            })
    return rows


def fig2_latency(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                 capacities_mb=FIG2_CAPACITIES_MB,
                 increases=FIG2_LATENCY_INCREASES):
    """Fig. 2: geomean (over scale-out workloads) performance vs. LLC
    latency increase, one isocurve per capacity, normalized to the 8 MB
    baseline at +0%."""
    # One point per (workload, capacity); the 8 MB column is the
    # normalization denominator.
    grid = run_points(_capacity_systems((8,) + tuple(capacities_mb), scale),
                      plan, seed)
    base = {name: results[8].performance()
            for name, results in grid.items()}
    rows = []
    for cap in capacities_mb:
        for inc in increases:
            ratios = [results[cap].performance_with_llc_scale(1.0 + inc)
                      / base[name] for name, results in grid.items()]
            rows.append({
                "capacity_mb": cap,
                "latency_increase_pct": int(inc * 100),
                "normalized_performance": geomean(ratios),
            })
    return rows
