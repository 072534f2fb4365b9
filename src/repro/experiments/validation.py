"""Cross-validation: trace-driven simulator vs. closed-form models.

Two independent implementations of the same question should agree:

* the *analytic* maximum data hit fraction of a shared LLC
  (:mod:`repro.workloads.analysis`, built on Che's approximation and
  LRU scan/uniform theory) versus the *simulated* data hit fraction of
  the corresponding system;
* the DRAM technology model's derived vault latency versus the Table II
  constants the simulator uses.

Run as ``python -m repro.experiments validate``.
"""

from repro.params import MB
from repro.core.systems import baseline_config
from repro.cores.perf_model import (LEVEL_L1, LEVEL_L2, LEVEL_LLC_LOCAL,
                                    LEVEL_LLC_REMOTE)
from repro.workloads.analysis import max_data_hit_fraction
from repro.workloads.scaleout import SCALEOUT_WORKLOADS, SCALEOUT_LABELS
from repro.experiments.common import run_points, DEFAULT_SCALE, DEFAULT_SEED


def _simulated_data_hit_fraction(result):
    """Fraction of data references served on chip (any cache level)."""
    hits = total = 0
    for core in result.cores:
        counts = core.data_count
        on_chip = (counts[LEVEL_L1] + counts[LEVEL_L2]
                   + counts[LEVEL_LLC_LOCAL] + counts[LEVEL_LLC_REMOTE])
        hits += on_chip
        total += sum(counts)
    return hits / max(1, total)


def validate_hit_rates(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                       capacity_mb=256, workloads=None):
    """Compare analytic vs simulated on-chip data hit fractions for a
    shared LLC of ``capacity_mb``.  The analytic number is an upper
    bound (no conflict misses, no cross-region churn), so the simulated
    value should sit at or below it, within a modest band."""
    grid = run_points({"baseline": baseline_config(
                           scale=scale, llc_size_bytes=capacity_mb * MB)},
                      plan, seed, workloads)
    rows = []
    for wname, results in grid.items():
        spec = SCALEOUT_WORKLOADS[wname]
        analytic = max_data_hit_fraction(spec, capacity_mb * MB,
                                         scale=scale)
        simulated = _simulated_data_hit_fraction(results["baseline"])
        rows.append({
            "workload": SCALEOUT_LABELS.get(wname, wname),
            "analytic_upper_bound": analytic,
            "simulated": simulated,
            "gap": analytic - simulated,
        })
    return rows


def validate_technology_link():
    """The DRAM sweep's chosen designs must land on Table II's cycle
    counts (the link `SiloDesign` establishes)."""
    from repro.core.silo import SiloDesign
    from repro import params as P
    rows = []
    for label, co, target in (("SILO", False, P.SILO_VAULT_TOTAL_LATENCY),
                              ("SILO-CO", True,
                               P.SILO_CO_VAULT_TOTAL_LATENCY)):
        d = SiloDesign.from_technology(capacity_optimized=co)
        rows.append({
            "design": label,
            "derived_total_cycles": d.vault_total_latency_cycles,
            "table_ii_cycles": target,
            "matches": d.matches_table_ii(capacity_optimized=co),
        })
    return rows


def characterize_workloads(scale=DEFAULT_SCALE):
    """Working-set inventory of every modeled workload (scaled blocks
    and reference shares) -- the analytic view behind Table IV."""
    from repro.workloads.analysis import working_set_summary
    from repro.workloads.enterprise import ENTERPRISE_WORKLOADS
    rows = []
    for catalog in (SCALEOUT_WORKLOADS, ENTERPRISE_WORKLOADS):
        for name, spec in catalog.items():
            for r in working_set_summary(spec, scale=scale):
                r = dict(r)
                r["workload"] = name
                rows.append(r)
    return rows
