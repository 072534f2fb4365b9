"""On-chip interconnect traffic: Baseline vs SILO (Sec. V-D).

The paper argues that eliminating the shared LLC "reduces demands on
the on-chip interconnect": SILO's local vault hits never enter the
mesh, while every baseline LLC access crosses it.  This experiment
measures mesh link traversals per kilo-instruction for both systems
(the paper states the claim qualitatively; we quantify it)."""

from repro.core.systems import system_config
from repro.workloads.scaleout import SCALEOUT_LABELS
from repro.experiments.common import run_points, DEFAULT_SCALE, DEFAULT_SEED


def _systems(names, scale):
    return {name: system_config(name, scale=scale) for name in names}


def _baseline_vs_silo(plan, scale, seed, workloads, column, per_ki):
    """Rows of ``per_ki(summary)`` for Baseline and SILO per workload,
    as ``baseline_<column>``/``silo_<column>`` and SILO's reduction."""
    grid = run_points(_systems(("baseline", "silo"), scale), plan, seed,
                      workloads)
    rows = []
    for wname, results in grid.items():
        base = per_ki(results["baseline"])
        silo = per_ki(results["silo"])
        rows.append({
            "workload": SCALEOUT_LABELS.get(wname, wname),
            "baseline_" + column: base,
            "silo_" + column: silo,
            "reduction": 1.0 - silo / max(1e-12, base),
        })
    return rows


def noc_traffic(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                workloads=None):
    """Mesh link traversals per kilo-instruction, Baseline vs SILO."""
    return _baseline_vs_silo(
        plan, scale, seed, workloads, "links_per_ki",
        lambda r: (1000.0 * r.counters["link_traversals"]
                   / max(1, r.instructions())))


def offchip_traffic(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                    workloads=None):
    """Off-chip traffic in bytes per kilo-instruction (reads + writes),
    Baseline vs SILO -- the bandwidth-side view behind Fig. 13's
    energy result and the paper's Sec. VII-A bandwidth discussion."""
    return _baseline_vs_silo(
        plan, scale, seed, workloads, "bytes_per_ki",
        lambda r: (64.0 * 1000.0 * r.counters["memory_accesses"]
                   / max(1, r.instructions())))


def dnuca_comparison(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                     workloads=None):
    """Related-work comparison (Sec. VIII): Victim Replication [43] on
    the shared LLC versus SILO.  The paper argues D-NUCA schemes are
    fundamentally limited by the small capacity of nearby banks; here
    VR's local-bank replicas buy a little locality while SILO's
    hundreds of MB of private capacity buy much more."""
    grid = run_points(_systems(("baseline", "baseline_vr", "silo"), scale),
                      plan, seed, workloads)
    rows = []
    for wname, results in grid.items():
        base = results["baseline"].performance()
        vr = results["baseline_vr"]
        silo = results["silo"].performance()
        rows.append({
            "workload": SCALEOUT_LABELS.get(wname, wname),
            "victim_replication": vr.performance() / base,
            "silo": silo / base,
            "replica_hits": vr.counters["replica_hits"],
        })
    return rows
