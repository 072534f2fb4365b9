"""Additional property-based tests on safety-critical structures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.missmap import MissMap
from repro.caches.vault_cache import VaultCache
from repro.coherence.directory_cache import DirectoryCache
from repro.workloads.generator import generate_traces, \
    _generate_traces, FLAG_IFETCH
from repro.workloads.scaleout import WEB_SEARCH

OPS = st.lists(st.tuples(st.sampled_from(["fill", "evict", "query"]),
                         st.integers(min_value=0, max_value=511)),
               max_size=300)


@settings(max_examples=50, deadline=None)
@given(OPS)
def test_missmap_never_lies_about_residency(ops):
    """Safety: predicts_miss must never return True for a block that is
    actually resident (a wrong skip would return stale data).  We track
    ground-truth residency alongside."""
    mm = MissMap(segments=4)  # tiny: forces segment evictions
    resident = set()
    for op, block in ops:
        if op == "fill":
            mm.record_fill(block)
            resident.add(block)
        elif op == "evict":
            mm.record_eviction(block)
            resident.discard(block)
        else:
            if mm.predicts_miss(block):
                assert block not in resident, \
                    "MissMap predicted miss for resident block %d" % block


@settings(max_examples=50, deadline=None)
@given(OPS)
def test_missmap_mirrors_a_vault(ops):
    """Driving a MissMap from a real direct-mapped vault's fills and
    evictions keeps it truthful."""
    vault = VaultCache(64 * 64)
    mm = MissMap(segments=8)
    for op, block in ops:
        if op == "query":
            if mm.predicts_miss(block):
                assert not vault.contains(block)
            continue
        victim = vault.insert(block, 1)
        mm.record_fill(block)
        if victim is not None:
            mm.record_eviction(victim[0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 63)),
                min_size=1, max_size=200))
def test_directory_cache_size_bounded(lookups):
    dc = DirectoryCache(4, sets_per_node=8)
    for node, dset in lookups:
        dc.lookup(node, dset)
    for cache in dc._cached:
        assert len(cache) <= 8
    assert dc.hits + dc.misses == len(lookups)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=2 ** 31 - 1))
def test_generator_deterministic_across_seeds(seed):
    # Two generations, not one memoized set compared with itself.
    a, _ = generate_traces(WEB_SEARCH, 2, 200, scale=1024, seed=seed)
    b, _ = _generate_traces(WEB_SEARCH, 2, 200, scale=1024, seed=seed)
    assert a is not b
    assert a[0].blocks == b[0].blocks
    assert a[1].flags == b[1].flags


def test_generator_region_fractions_statistical():
    """Observed per-region reference shares converge to the spec."""
    traces, layout = generate_traces(WEB_SEARCH, 1, 40000, scale=256,
                                     seed=11)
    tr = traces[0]
    counts = {}
    data_total = 0
    start = tr.prewarm_events  # skip the scan-warmup prefix
    for b, fl in zip(tr.blocks[start:], tr.flags[start:]):
        if fl & FLAG_IFETCH:
            continue
        data_total += 1
        name = layout.region_of(b)
        counts[name] = counts.get(name, 0) + 1
    for region in WEB_SEARCH.regions:
        observed = counts.get(region.name, 0) / data_total
        assert observed == pytest.approx(region.fraction, abs=0.02), \
            (region.name, observed, region.fraction)


def test_generator_ifetch_share_statistical():
    traces, _ = generate_traces(WEB_SEARCH, 1, 40000, scale=256, seed=11)
    tr = traces[0]
    p = WEB_SEARCH.core
    expected = p.ifetch_per_instr / (p.ifetch_per_instr
                                     + p.data_refs_per_instr)
    flags = tr.flags[tr.prewarm_events:]  # skip the warmup prefix
    observed = sum(1 for fl in flags if fl & FLAG_IFETCH) / len(flags)
    assert observed == pytest.approx(expected, abs=0.02)


def test_zipf_head_mass_matches_theory():
    """Top-k mass of sampled ranks matches the analytic Zipf mass."""
    from repro.workloads.generator import zipf_ranks
    from repro.analytic.che import zipf_weights
    rng = np.random.default_rng(5)
    n, alpha = 5000, 0.8
    ranks = zipf_ranks(n, alpha, 100000, rng)
    sampled_head = np.mean(ranks < 100)
    analytic_head = zipf_weights(n, alpha)[:100].sum()
    assert sampled_head == pytest.approx(analytic_head, abs=0.02)
