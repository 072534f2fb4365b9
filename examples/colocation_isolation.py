#!/usr/bin/env python
"""Performance isolation under workload colocation (Table VI scenario).

A latency-critical Web Search service runs on 8 cores.  A memory-
hungry batch job (SPEC'06 mcf) is then colocated on the other 8 cores.
Under a shared LLC the batch job evicts the service's working set;
under SILO's private vaults the service is isolated.

Run:  python examples/colocation_isolation.py
"""

from repro import system_config, System, SamplingPlan
from repro.cores.perf_model import CoreParams
from repro.sim.driver import run_system
from repro.workloads.scaleout import WEB_SEARCH
from repro.workloads.spec import SPEC_APPS
from repro.workloads.colocation import generate_colocation_traces
from repro.workloads.generator import generate_traces

PLAN = SamplingPlan(30_000, 12_000)
SERVICE_CORES = list(range(8))
BATCH_CORES = list(range(8, 16))


def web_search_ipc(system_name, colocated):
    config = system_config(system_name)
    mcf = SPEC_APPS["mcf"]
    params = [WEB_SEARCH.core] * 8 + (
        [mcf.core] * 8 if colocated else [CoreParams()] * 8)
    system = System(config, params)
    if colocated:
        traces, _ = generate_colocation_traces(
            [(WEB_SEARCH, SERVICE_CORES), (mcf, BATCH_CORES)],
            events_per_core=PLAN.total_events, scale=config.scale)
    else:
        traces, _ = generate_traces(
            WEB_SEARCH, num_cores=8, events_per_core=PLAN.total_events,
            scale=config.scale, core_ids=SERVICE_CORES)
    result = run_system(system, traces, PLAN.warmup_events,
                        PLAN.measure_events)
    return result.ipc_of(SERVICE_CORES)


def main():
    print("Web Search on 8 cores; mcf batch job on the other 8.\n")
    baseline_alone = web_search_ipc("baseline", colocated=False)
    print("%-28s %-12s %-12s %s" % ("setup", "shared LLC", "SILO",
                                    "(normalized to alone/shared)"))
    for label, colocated in (("Web Search alone", False),
                             ("Web Search + mcf", True)):
        shared = web_search_ipc("baseline", colocated) / baseline_alone
        silo = web_search_ipc("silo", colocated) / baseline_alone
        print("%-28s %-12.3f %-12.3f" % (label, shared, silo))
    print()
    print("The shared LLC loses performance under colocation; SILO's "
          "private vaults isolate the service (Table VI).")


if __name__ == "__main__":
    main()
