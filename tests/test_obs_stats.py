"""Machine statistics: latency distributions and ``System.stats()``."""

import pytest

from repro.cores.perf_model import CoreParams
from repro.obs.stats import Distribution, dump
from repro.sim.config import HierarchyConfig
from repro.sim.driver import simulate
from repro.sim.sampling import SamplingPlan
from repro.sim.system import System
from repro.workloads.scaleout import WEB_SEARCH


def small_system(kind="shared", **kw):
    config = HierarchyConfig(
        name="obs", num_cores=4, scale=1,
        l1_size_bytes=4096, l1_ways=4,
        llc_kind=kind, llc_size_bytes=64 * 1024, llc_ways=4,
        llc_latency=5, memory_queueing=False, **kw)
    return System(config, [CoreParams()] * 4)


def test_distribution_percentiles():
    d = Distribution()
    for x in [1] * 90 + [100] * 9 + [1000]:
        d.record(x)
    assert d.count == 100
    assert d.value()["p50"] == 1.0
    assert 100.0 <= d.value()["p95"] <= 127.0  # one octave of error
    assert d.value()["p99"] <= 1000.0
    assert d.value()["max"] == 1000
    d.reset()
    assert d.count == 0 and d.value()["p99"] == 0.0


def test_distribution_merge():
    a, b = Distribution(), Distribution()
    a.record(5)
    b.record(500)
    a.merge(b)
    assert a.count == 2
    assert a.min == 5 and a.max == 500


def test_dump_lists_each_leaf_on_one_line():
    hist = Distribution()
    hist.record(3)
    tree = {"a": {"x": 2, "latency": hist.value()}, "y": 1.5}
    assert dump(tree).splitlines() == [
        "%-46s 2" % "system.a.x",
        "%-46s count=1 mean=3.0000 min=3 max=3 p50=3.0000 p95=3.0000 "
        "p99=3.0000" % "system.a.latency",
        "%-46s 1.5000" % "system.y"]


def test_system_counters_reachable_through_registry():
    s = small_system()
    s.access(0, 1, False, False)
    s.access(1, 1, True, False)   # invalidates core 0's copy
    snap = s.stats()
    assert snap["caches"]["llc_accesses"] == s.llc_accesses > 0
    assert snap["coherence"]["invalidations"] == s.invalidations == 1
    assert snap["memory"]["reads"] == s.memory.reads > 0
    assert snap["noc"]["link_traversals"] == s.mesh.link_traversals > 0
    assert "core0" in snap["cores"]
    assert "llc_dynamic_nj" in snap["energy"]


def test_silo_system_registry_covers_directory():
    s = small_system(kind="private_vault", protocol="moesi")
    s.access(0, 1, False, False)
    snap = s.stats()
    assert (snap["coherence"]["directory_lookups"]
            == s.directory_lookups == 1)
    assert snap["caches"]["vault_evictions"] == 0


def test_optimization_structures_register():
    s = small_system(kind="private_vault", protocol="moesi",
                     local_miss_predictor="missmap",
                     directory_cache="sram", l1_prefetcher=True)
    for i in range(50):
        s.access(0, i, False, False)
    snap = s.stats()
    assert "missmap" in snap["caches"]
    assert "prefetcher" in snap["caches"]
    assert "directory_cache" in snap["coherence"]
    hits = snap["coherence"]["directory_cache"]
    assert hits["hits"] + hits["misses"] == s.directory_lookups


# ---------------------------------------------------------------------------
# nothing a machine holds keeps the machine alive
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("request_kind", [
    "baseline", "baseline_dram", "3level_sram", "silo", "silo_co",
    "vaults_sh", "silo-missmap", "baseline-sharing", "silo-faults",
    "baseline-prefetcher"])
def test_a_run_frees_its_machine_by_reference_counting(request_kind):
    # A reference cycle through the machine would keep every finished
    # run as cyclic garbage until a full collection, and whatever ran
    # next would pay for collecting it.
    import gc
    import weakref

    from repro.core.systems import system_config
    from repro.faults import FaultPlan
    from repro.sim.engine import RunRequest, execute_request
    from repro.sim.sampling import SamplingPlan
    from repro.workloads.scaleout import SCALEOUT_WORKLOADS

    name, _, feature = request_kind.partition("-")
    overrides = {"missmap": dict(local_miss_predictor="missmap"),
                 "prefetcher": dict(l1_prefetcher=True)}.get(feature, {})
    config = system_config(name, num_cores=4, scale=1024, **overrides)
    request = RunRequest.point(
        config, SCALEOUT_WORKLOADS["web_search"], SamplingPlan(300, 200),
        7, track_sharing=feature == "sharing",
        faults=(FaultPlan(seed=1, data_flip_rate=0.01)
                if feature == "faults" else None))
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = execute_request(request)
        result.system.stats()      # readable while it lives
        machine = weakref.ref(result.system)
        del result
        assert machine() is None
    finally:
        if enabled:
            gc.enable()


def test_snapshot_reading_does_not_mutate():
    # the snapshot covers every live counter of the machine (LLC,
    # coherence, NoC, memory), so reading and dumping it twice must
    # give the same values
    config = HierarchyConfig(name="inert", num_cores=4, scale=512,
                             llc_kind="shared")
    result = simulate(config, WEB_SEARCH, SamplingPlan(1500, 800), seed=2)
    a = result.system.stats()
    dump(result.system.stats())
    assert result.system.stats() == a
