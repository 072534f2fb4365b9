"""Stats-reset semantics: after System.reset_stats() every counter of
``System.stats()`` must read zero.

This is the bug class scattered counters invite: add a counter, forget
to reset it, and warmup pollution leaks into measurement.  Each
counter's owner resets it and ``System.reset_stats`` calls every owner,
so the test drives a warmup that touches every subsystem (including
the optional optimization structures) and then asserts over the whole
tree.
"""

import pytest

from repro.cores.perf_model import CoreParams
from repro.sim.config import HierarchyConfig
from repro.sim.system import System

#: Leaves derived from counters or constants, which a reset need not
#: zero: the mesh's mean hop count, each channel's bank utilization,
#: the directory cache's hit rate, memory's reads + writes, and the
#: energy model's values.
DERIVED = ("noc.avg_hops", ".utilization", "directory_cache.hit_rate",
           "memory.accesses", "energy.")


def build(kind, **kw):
    kw.setdefault("llc_size_bytes", 4096)   # tiny: forces evictions
    config = HierarchyConfig(
        name="rst", num_cores=4, scale=1,
        l1_size_bytes=4096, l1_ways=4,
        llc_kind=kind, llc_latency=5, memory_queueing=True, **kw)
    return System(config, [CoreParams()] * 4)


def warm(s):
    """Touch every path: reads, writes, peer sharing, evictions."""
    for i in range(200):
        s.access(i % 4, i, i % 3 == 0, False, now=float(i))
        s.access(i % 4, i % 32, False, True, now=float(i))  # ifetch
    s.access(0, 5, True, False)
    s.access(1, 5, True, False)   # peer invalidation
    for c in s.cores:
        c.retire(100)


def leaves(tree, prefix="system"):
    """``(path, value)`` for every number in a stats tree (a latency
    histogram's summary contributes its count, mean, ...)."""
    for name, value in tree.items():
        path = "%s.%s" % (prefix, name)
        if isinstance(value, dict):
            yield from leaves(value, path)
        else:
            yield path, value


def zero_violations(system):
    """Counters that still read non-zero after a reset."""
    return [(path, v) for path, v in leaves(system.stats())
            if v != 0 and not any(d in path for d in DERIVED)]


SILO_OPTS = dict(local_miss_predictor="missmap", directory_cache="sram",
                 l1_prefetcher=True)


@pytest.mark.parametrize("kind,kw", [
    ("shared", {}),
    ("shared", dict(victim_replication=True, llc_size_bytes=64 * 1024,
                    llc_ways=4)),
    ("shared", dict(dram_cache_bytes=1 << 20, l2_size_bytes=8192)),
    ("private_vault", {}),
    ("private_vault", SILO_OPTS),
], ids=["shared", "shared-vr", "shared-dram$-l2", "silo", "silo-opts"])
def test_every_registered_stat_zero_after_reset(kind, kw):
    s = build(kind, **kw)
    s.track_sharing = True
    warm(s)
    # sanity: warmup actually dirtied the tree
    assert zero_violations(s), "warmup should move some stats"
    s.reset_stats()
    assert zero_violations(s) == []
    # the classification dicts are cleared too
    assert s.block_readers == {} and s.llc_writes_by_block == {}


def test_formerly_forgotten_counters_now_reset():
    """replica_hits / prefetch_fills / directory-cache and missmap
    counters were once left out of reset_stats."""
    s = build("shared", victim_replication=True,
              llc_size_bytes=64 * 1024, llc_ways=4)
    s.access(0, 1, False, False)
    for i in range(1, 6):
        s.access(0, 1 + i * 16, False, False)  # evict 1 -> replica
    s.access(0, 1, False, False)               # replica hit
    assert s.replica_hits == 1
    s.reset_stats()
    assert s.replica_hits == 0

    p = build("private_vault", **SILO_OPTS)
    for i in range(100):
        p.access(0, i, False, False)
    assert p.sram_dir_cache.hits + p.sram_dir_cache.misses > 0
    p.reset_stats()
    assert p.sram_dir_cache.hits == p.sram_dir_cache.misses == 0
    assert all(m.known_misses == 0 and m.unknown == 0
               for m in p.missmaps)
    assert all(pf.issued == 0 for pf in p.prefetchers)
    # architectural predictor state survives (only stats reset)
    assert any(pf._table for pf in p.prefetchers)


def test_prefetch_fills_honor_measuring():
    """Regression: stride-prefetch fills issued during warmup
    (``measuring=False``) must not count -- like every other stat,
    ``prefetch_fills`` covers only the measurement window."""
    s = build("private_vault", **SILO_OPTS)
    s.measuring = False
    for i in range(100):
        s.access(0, i, False, False)   # steady stride: fills issue
    assert any(pf.issued > 0 for pf in s.prefetchers), \
        "warmup should have triggered prefetches"
    assert s.prefetch_fills == 0

    s.reset_stats()
    s.measuring = True
    for i in range(100, 200):
        s.access(0, i, False, False)
    assert s.prefetch_fills > 0
