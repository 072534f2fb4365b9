#!/usr/bin/env python
"""Quickstart: compare the baseline server CPU against SILO on Web
Search.

Builds the paper's 16-core baseline (8 MB shared NUCA LLC) and SILO
(per-core private 256 MB die-stacked DRAM vaults), runs the Web Search
workload model on both, and reports performance, hit breakdowns and
memory-subsystem energy.

Run:  python examples/quickstart.py
"""

from repro import simulate, system_config, scaleout_workload, SamplingPlan


def main():
    plan = SamplingPlan(warmup_events=30_000, measure_events=12_000)
    workload = scaleout_workload("web_search")

    print("Simulating Web Search on the baseline (8MB shared LLC)...")
    base = simulate(system_config("baseline"), workload, plan)
    print("Simulating Web Search on SILO (256MB private vaults)...")
    silo = simulate(system_config("silo"), workload, plan)

    speedup = silo.performance() / base.performance()
    print()
    print("aggregate IPC: baseline %.2f   SILO %.2f   (speedup %.2fx)"
          % (base.performance(), silo.performance(), speedup))

    for name, result in (("baseline", base), ("SILO", silo)):
        local, remote, miss = result.llc_breakdown()
        total = local + remote + miss
        print("%-9s LLC accesses: %5.1f%% local hits, %5.1f%% remote "
              "hits, %5.1f%% off-chip misses  (%.1f MPKI)"
              % (name, 100 * local / total, 100 * remote / total,
                 100 * miss / total, result.llc_mpki()))

    saving = 1 - (silo.energy["total_dynamic_nj"]
                  / base.energy["total_dynamic_nj"])
    print()
    print("memory-subsystem dynamic energy: SILO saves %.0f%% "
          "(fewer off-chip accesses)" % (100 * saving))


if __name__ == "__main__":
    main()
