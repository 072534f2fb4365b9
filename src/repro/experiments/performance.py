"""Main performance studies: Fig. 10 (scale-out), Fig. 11 (LLC hit
breakdown), Fig. 14 (enterprise) and Fig. 16 (3-level hierarchies).

Each figure declares its |systems| x |workloads| point grid through
:func:`~repro.experiments.common.run_points`, one batch through the run
engine (:func:`~repro.sim.engine.run_grid`), so duplicate points --
the baseline x workload points shared by Fig. 10, Fig. 11, Fig. 13 and
the NOC study -- are simulated once and memoized.
"""

from repro.core.config import EVALUATED_SYSTEMS, THREE_LEVEL_SYSTEMS
from repro.core.systems import system_config, SYSTEM_LABELS
from repro.workloads.scaleout import SCALEOUT_WORKLOADS, SCALEOUT_LABELS
from repro.workloads.enterprise import ENTERPRISE_WORKLOADS, ENTERPRISE_LABELS
from repro.experiments.common import (run_points, geomean, DEFAULT_SCALE,
                                      DEFAULT_SEED)


def _suite_performance(systems, plan, scale, seed, workloads=None,
                       suite=SCALEOUT_WORKLOADS, labels=SCALEOUT_LABELS,
                       baseline="baseline"):
    """Run ``systems`` x ``workloads``; returns rows normalized to the
    baseline system plus a geomean row per system."""
    others = [s for s in systems if s != baseline]
    grid = run_points({s: system_config(s, scale=scale)
                       for s in [baseline] + others},
                      plan, seed, workloads, suite)
    rows = []
    ratios = {s: [] for s in others}
    for wname, results in grid.items():
        base = results[baseline].performance()
        rows.append({"workload": labels.get(wname, wname),
                     "system": SYSTEM_LABELS[baseline],
                     "normalized_performance": 1.0})
        for sname in others:
            ratio = results[sname].performance() / base
            ratios[sname].append(ratio)
            rows.append({"workload": labels.get(wname, wname),
                         "system": SYSTEM_LABELS[sname],
                         "normalized_performance": ratio})
    for sname, vals in ratios.items():
        rows.append({"workload": "Geomean", "system": SYSTEM_LABELS[sname],
                     "normalized_performance": geomean(vals)})
    return rows


def fig10_scaleout(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                   systems=EVALUATED_SYSTEMS, workloads=None):
    """Fig. 10: normalized performance of the five evaluated systems on
    the scale-out suite."""
    return _suite_performance(systems, plan, scale, seed, workloads)


def fig11_hit_breakdown(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                        workloads=None):
    """Fig. 11: LLC accesses broken into local hits, remote hits and
    off-chip misses, Baseline vs SILO (baseline's hits all count as
    local, as in the paper)."""
    grid = run_points({s: system_config(s, scale=scale)
                       for s in ("baseline", "silo")},
                      plan, seed, workloads)
    rows = []
    for wname, results in grid.items():
        for sname, result in results.items():
            local, remote, miss = result.llc_breakdown()
            total = max(1, local + remote + miss)
            rows.append({
                "workload": SCALEOUT_LABELS.get(wname, wname),
                "system": SYSTEM_LABELS[sname],
                "local_hits": local / total,
                "remote_hits": remote / total,
                "offchip_misses": miss / total,
            })
    return rows


def fig14_enterprise(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                     systems=EVALUATED_SYSTEMS):
    """Fig. 14: normalized performance on enterprise workloads."""
    return _suite_performance(systems, plan, scale, seed,
                              suite=ENTERPRISE_WORKLOADS,
                              labels=ENTERPRISE_LABELS)


def fig16_three_level(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                      systems=THREE_LEVEL_SYSTEMS, workloads=None):
    """Fig. 16: 3-level hierarchies (3level-SRAM / eDRAM / SILO) on the
    scale-out suite, normalized to 3level-SRAM."""
    return _suite_performance(systems, plan, scale, seed, workloads,
                              baseline="3level_sram")
