"""Fig. 13: memory-subsystem dynamic energy, Baseline vs SILO
(Sec. VII-C), split into LLC and main-memory components and normalized
to the baseline's total.

The baseline x workload points here are the same points Fig. 10 and
Fig. 11 simulate (run summaries carry the default energy breakdown),
so a shared run cache serves them without re-simulating.
"""

from repro.core.systems import system_config, SYSTEM_LABELS
from repro.params import NS_PER_CYCLE
from repro.workloads.scaleout import SCALEOUT_LABELS
from repro.experiments.common import run_points, DEFAULT_SCALE, DEFAULT_SEED


def fig13_energy(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                 workloads=None):
    """Fig. 13 rows: per workload and system, the LLC and main-memory
    dynamic energy normalized to that workload's baseline total.  Also
    reports SILO's average LLC power (Sec. VII-C bounds it at 2.5 W)."""
    grid = run_points({s: system_config(s, scale=scale)
                       for s in ("baseline", "silo")},
                      plan, seed, workloads)
    rows = []
    for wname, results in grid.items():
        base_total = max(results["baseline"].energy["total_dynamic_nj"],
                         1e-12)
        for sname, result in results.items():
            energy = result.energy
            # Wall-clock of the measured window: the slowest core's
            # cycle count at 2 GHz.
            seconds = result.max_core_cycles() * NS_PER_CYCLE * 1e-9
            rows.append({
                "workload": SCALEOUT_LABELS.get(wname, wname),
                "system": SYSTEM_LABELS[sname],
                "llc_dynamic": energy["llc_dynamic_nj"] / base_total,
                "memory_dynamic": energy["memory_dynamic_nj"] / base_total,
                "total_dynamic": energy["total_dynamic_nj"] / base_total,
                "llc_power_w": result.llc_power_w(seconds),
            })
    return rows
