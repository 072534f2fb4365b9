"""Read-write sharing studies (Sec. II-C, Fig. 3 and Fig. 4).

Fig. 3 classifies the accesses reaching an 8 MB shared LLC into Reads,
Writes that no other core ever reads (Writes-NoSharing) and writes to
blocks read by a non-writing core (Writes-RWSharing).  Fig. 4
artificially multiplies the access latency of RW-shared blocks by
1x-4x and reports the performance impact -- re-evaluated in closed
form from the recorded RW-shared latency sums.
"""

from repro.core.systems import baseline_config
from repro.workloads.scaleout import SCALEOUT_LABELS
from repro.experiments.common import run_points, DEFAULT_SCALE, DEFAULT_SEED

RW_MULTIPLIERS = (1.0, 2.0, 3.0, 4.0)


def fig3_breakdown(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                   workloads=None):
    """Fig. 3: percentage breakdown of LLC accesses."""
    grid = run_points({"baseline": baseline_config(scale=scale)}, plan,
                      seed, workloads, track_sharing=True)
    rows = []
    for name, results in grid.items():
        reads, w_nosh, w_rw = results["baseline"].sharing
        total = reads + w_nosh + w_rw
        if total == 0:
            total = 1
        rows.append({
            "workload": SCALEOUT_LABELS.get(name, name),
            "reads_pct": 100.0 * reads / total,
            "writes_nosharing_pct": 100.0 * w_nosh / total,
            "writes_rwsharing_pct": 100.0 * w_rw / total,
        })
    return rows


def fig4_rw_latency(plan=None, scale=DEFAULT_SCALE, seed=DEFAULT_SEED,
                    workloads=None, multipliers=RW_MULTIPLIERS):
    """Fig. 4: performance (normalized to 1x) when RW-shared blocks'
    access latency is multiplied by 1x-4x (closed-form re-evaluation
    from one simulated point per workload)."""
    grid = run_points({"baseline": baseline_config(scale=scale)}, plan,
                      seed, workloads)
    rows = []
    for name, results in grid.items():
        result = results["baseline"]
        base = result.performance_with_rw_multiplier(1.0)
        for mult in multipliers:
            perf = result.performance_with_rw_multiplier(mult)
            rows.append({
                "workload": SCALEOUT_LABELS.get(name, name),
                "rw_latency_multiplier": mult,
                "normalized_performance": perf / base,
            })
    return rows
