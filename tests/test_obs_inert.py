"""Property: observability is inert.

Dumping the stats tree, the event tracer, manifest collection,
telemetry, the profiler or any combination must not change simulation
results: same config and seed must give bit-identical performance and
counters whether or not anything is observing.  Observation only
*reads* simulator state.  ``tests/test_oracle.py`` runs the same check
on random requests through a fully observed session.
"""

import pytest

from repro.obs.session import observe
from repro.obs.stats import dump
from repro.obs.trace import EventTracer
from repro.sim.config import HierarchyConfig
from repro.sim.driver import run_system, simulate
from repro.sim.sampling import SamplingPlan
from repro.sim.system import System
from repro.workloads.generator import generate_traces
from repro.workloads.scaleout import WEB_SEARCH, DATA_SERVING

PLAN = SamplingPlan(1500, 800)


def config(kind):
    return HierarchyConfig(name="inert", num_cores=4, scale=512,
                           llc_kind=kind)


def fingerprint(result):
    """Every observable outcome of a run, as plain data."""
    s = result.system
    return {
        "performance": result.performance(),
        "per_core_ipc": result.per_core_ipc(),
        "level_counts": result.level_counts(),
        "instructions": result.instructions(),
        "llc_accesses": s.llc_accesses,
        "invalidations": s.invalidations,
        "directory_lookups": s.directory_lookups,
        "remote_forwards": s.remote_forwards,
        "vault_evictions": s.vault_evictions,
        "l1_writebacks": s.l1_writebacks,
        "memory_reads": s.memory.reads,
        "memory_writes": s.memory.writes,
        "link_traversals": s.mesh.link_traversals,
    }


@pytest.mark.parametrize("kind", ["shared", "private_vault"])
@pytest.mark.parametrize("seed", [3, 11])
def test_observability_is_inert(kind, seed):
    spec = WEB_SEARCH if kind == "shared" else DATA_SERVING
    plain = simulate(config(kind), spec, PLAN, seed=seed)
    baseline = fingerprint(plain)

    # observed run: tracing + stats + manifest collection all on
    with observe(trace_capacity=512, collect_manifests=True,
                 collect_stats=True) as session:
        watched = simulate(config(kind), spec, PLAN, seed=seed)
        dump(watched.system.stats())
    assert session.runs, "manifest records collected"
    assert watched.system.tracer is not None
    if kind == "private_vault":
        assert watched.system.tracer.emitted > 0

    # bit-identical: exact equality, no tolerance
    assert fingerprint(watched) == baseline


def test_direct_tracer_attachment_is_inert():
    plain = simulate(config("private_vault"), WEB_SEARCH, PLAN, seed=9)
    traced_sys_cfg = config("private_vault")
    system = System(traced_sys_cfg, [WEB_SEARCH.core] * 4)
    system.attach_tracer(EventTracer(capacity=64))
    traces, layout = generate_traces(
        WEB_SEARCH, num_cores=4, events_per_core=PLAN.total_events,
        scale=traced_sys_cfg.scale, seed=9)
    system.rw_shared_range = layout.rw_shared_range
    traced = run_system(system, traces, PLAN.warmup_events,
                        PLAN.measure_events)
    assert fingerprint(traced) == fingerprint(plain)


@pytest.mark.parametrize("kind", ["shared", "private_vault"])
def test_telemetry_and_profiler_are_inert(kind):
    """Windowed telemetry and the self-profiler only read state: every
    simulated observable stays bit-identical when both are on."""
    spec = WEB_SEARCH if kind == "shared" else DATA_SERVING
    plain = simulate(config(kind), spec, PLAN, seed=7)

    with observe(telemetry_every=400, profile=True) as session:
        watched = simulate(config(kind), spec, PLAN, seed=7)

    assert fingerprint(watched) == fingerprint(plain)
    assert watched.system.stats() == plain.system.stats()
    assert (watched.latency_percentiles()
            == plain.latency_percentiles())
    # ...and the observation actually happened
    assert watched.telemetry is not None and watched.telemetry.windows
    assert session.profiler.report()["driven_events"] \
        == watched.driven_events()
