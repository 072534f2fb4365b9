"""Stats registry: counters, distributions, formulas, groups."""

import pytest

from repro.cores.perf_model import CoreParams
from repro.obs.stats import (Counter, BoundStat, Formula, Distribution,
                             Group)
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


def test_counter_basics():
    c = Counter("hits", "demand hits")
    c.incr()
    c.incr(4)
    assert c.value() == 5
    c.reset()
    assert c.value() == 0


def test_stat_name_validation():
    with pytest.raises(ValueError):
        Counter("")
    with pytest.raises(ValueError):
        Counter("a.b")


def test_bound_stat_views_and_resets_attribute():
    class Owner:
        hits = 7
    o = Owner()
    s = BoundStat.attr(o, "hits")
    assert s.value() == 7
    o.hits += 3
    assert s.value() == 10
    s.reset()
    assert o.hits == 0


def test_formula_never_resets():
    c = Counter("n")
    f = Formula("double", lambda: 2 * c.value())
    c.incr(3)
    assert f.value() == 6
    f.reset()
    assert f.value() == 6


def test_distribution_percentiles():
    d = Distribution("lat")
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
    a, b = Distribution("lat"), Distribution("lat")
    a.record(5)
    b.record(500)
    a.merge(b)
    assert a.count == 2
    assert a.min == 5 and a.max == 500


def test_group_registration_and_find():
    root = Group("root")
    g = root.group("sub")
    g.counter("hits")
    assert root.find("sub.hits").value() == 0
    with pytest.raises(ValueError):
        g.counter("hits")  # duplicate
    with pytest.raises(KeyError):
        root.find("sub.nope")
    # get-or-create returns the same child
    assert root.group("sub") is g


def test_group_snapshot_walk_and_dump():
    root = Group("system")
    root.group("a").counter("x").incr(2)
    root.group("b").formula("y", lambda: 1.5)
    snap = root.snapshot()
    assert snap == {"a": {"x": 2}, "b": {"y": 1.5}}
    paths = dict(root.walk())
    assert set(paths) == {"system.a.x", "system.b.y"}
    dump = root.dump()
    assert "system.a.x" in dump and "2" in dump


def test_system_counters_reachable_through_registry():
    s = small_system()
    s.access(0, 1, False, False)
    s.access(1, 1, True, False)   # invalidates core 0's copy
    assert (s.stats.find("caches.llc_accesses").value()
            == s.llc_accesses > 0)
    assert (s.stats.find("coherence.invalidations").value()
            == s.invalidations == 1)
    assert (s.stats.find("memory.reads").value()
            == s.memory.reads > 0)
    assert (s.stats.find("noc.link_traversals").value()
            == s.mesh.link_traversals > 0)
    snap = s.stats.snapshot()
    assert snap["caches"]["llc_accesses"] == s.llc_accesses
    assert "core0" in snap["cores"]
    assert "llc_dynamic_nj" in snap["energy"]


def test_silo_system_registry_covers_directory():
    s = small_system(kind="private_vault", protocol="moesi")
    s.access(0, 1, False, False)
    assert (s.stats.find("coherence.directory_lookups").value()
            == s.directory_lookups == 1)
    assert s.stats.find("caches.vault_evictions").value() == 0


def test_optimization_structures_register():
    s = small_system(kind="private_vault", protocol="moesi",
                     local_miss_predictor="missmap",
                     directory_cache="sram", l1_prefetcher=True)
    for i in range(50):
        s.access(0, i, False, False)
    snap = s.stats.snapshot()
    assert "missmap" in snap["caches"]
    assert "prefetcher" in snap["caches"]
    assert "directory_cache" in snap["coherence"]
    hits = snap["coherence"]["directory_cache"]
    assert hits["hits"] + hits["misses"] == s.directory_lookups


# ---------------------------------------------------------------------------
# a machine's registry does not keep the machine alive
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("request_kind", [
    "baseline", "baseline_dram", "3level_sram", "silo", "silo_co",
    "vaults_sh", "silo-missmap", "baseline-sharing", "silo-faults",
    "baseline-prefetcher"])
def test_a_run_frees_its_machine_by_reference_counting(request_kind):
    # With strong references from the stats registry back to the
    # machine, every finished run stayed as cyclic garbage until a
    # full collection, and whatever ran next paid for collecting it.
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
        result.system.stats.snapshot()      # readable while it lives
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
    a = result.system.stats.snapshot()
    result.system.stats.dump()
    assert result.system.stats.snapshot() == a
