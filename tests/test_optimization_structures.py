"""Realistic optimization structures: MissMap and SRAM directory cache."""

import pytest

from repro.caches.missmap import MissMap, default_missmap_for
from repro.coherence.directory_cache import DirectoryCache
from repro.cores.perf_model import CoreParams
from repro.sim.config import HierarchyConfig
from repro.sim.system import System


# -- MissMap ----------------------------------------------------------------

def test_missmap_tracks_fills_and_evictions():
    mm = MissMap(segments=8)
    assert not mm.predicts_miss(5)       # unknown: must probe
    mm.record_fill(5)
    assert not mm.predicts_miss(5)       # known present
    assert mm.predicts_miss(6)           # same segment, bit clear
    mm.record_eviction(5)
    assert mm.predicts_miss(5)           # known absent


def test_missmap_is_conservative_on_untracked_segments():
    """Losing a segment entry must never produce a false 'miss'
    prediction (that would skip a probe for a resident block)."""
    mm = MissMap(segments=2)
    mm.record_fill(0)         # segment 0
    mm.record_fill(64)        # segment 1
    mm.record_fill(128)       # segment 2 -> evicts segment 0
    assert mm.evicted_segments == 1
    assert not mm.predicts_miss(0)   # unknown now, not "miss"


def test_missmap_retracked_segment_keeps_resident_blocks():
    """A segment evicted from the MissMap and then tracked again must
    not read its still-resident blocks as absent."""
    mm = MissMap(segments=2)
    mm.record_fill(64)        # segment 1
    mm.record_fill(0)         # segment 0
    mm.record_fill(128)       # segment 2 -> evicts segment 1
    mm.record_fill(65)        # segment 1 again -> evicts segment 0
    assert not mm.predicts_miss(64)  # still resident
    assert mm.predicts_miss(66)      # never filled: known absent
    mm.record_eviction(0)     # leaves the vault while untracked
    mm.record_fill(1)         # segment 0 again
    assert mm.predicts_miss(0)


def test_missmap_segment_bits_independent():
    mm = MissMap(segments=8)
    mm.record_fill(0)
    mm.record_fill(1)
    mm.record_eviction(0)
    assert mm.predicts_miss(0)
    assert not mm.predicts_miss(1)


def test_missmap_storage_accounting():
    mm = MissMap(segments=100, blocks_per_segment=64)
    assert mm.storage_bits() == 100 * (28 + 64)


def test_missmap_validation():
    with pytest.raises(ValueError):
        MissMap(segments=0)


def test_default_sizing_covers_vault():
    mm = default_missmap_for(65536, coverage=4.0)
    assert mm.max_segments * mm.blocks_per_segment >= 4 * 65536


# -- DirectoryCache -----------------------------------------------------------

def test_directory_cache_hit_after_install():
    dc = DirectoryCache(4, sets_per_node=4)
    assert not dc.lookup(0, 10)   # cold miss, installs
    assert dc.lookup(0, 10)       # hit
    assert not dc.lookup(1, 10)   # per-node independence


def test_directory_cache_lru_eviction():
    dc = DirectoryCache(1, sets_per_node=2)
    dc.lookup(0, 1)
    dc.lookup(0, 2)
    dc.lookup(0, 1)     # touch 1
    dc.lookup(0, 3)     # evicts 2
    assert dc.lookup(0, 1)
    assert not dc.lookup(0, 2)


def test_directory_cache_stats():
    dc = DirectoryCache(2)
    dc.lookup(0, 1)
    dc.lookup(0, 1)
    assert dc.hit_rate() == pytest.approx(0.5)
    dc.reset_stats()
    assert dc.hit_rate() == 0.0


def test_directory_cache_validation():
    with pytest.raises(ValueError):
        DirectoryCache(0)


# -- system integration -------------------------------------------------------

def make_silo(**kw):
    config = HierarchyConfig(
        name="opt", num_cores=4, scale=1,
        l1_size_bytes=4096, l1_ways=4,
        llc_kind="private_vault", llc_size_bytes=256 * 64,
        llc_latency=23, memory_queueing=False, **kw)
    return System(config, [CoreParams()] * 4)


def test_missmap_variant_skips_known_misses():
    s = make_silo(local_miss_predictor="missmap")
    lat_cold = s.access(0, 100, False, False)     # unknown: probe paid
    s.vaults[0].invalidate(100)
    s.missmaps[0].record_eviction(100)
    s.l1d[0].invalidate(100)
    lat_known = s.access(0, 100, False, False)    # known miss: skipped
    assert lat_cold - lat_known == 23


def test_sram_dir_cache_hits_on_reuse():
    s = make_silo(directory_cache="sram")
    lat1 = s.access(0, 100, False, False)   # dir-set cold in SRAM
    s.vaults[0].invalidate(100)
    s.l1d[0].invalidate(100)
    lat2 = s.access(0, 100, False, False)   # dir-set now cached
    assert lat1 - lat2 == s.dir_latency
    assert s.sram_dir_cache.hits >= 1


def test_bool_true_still_means_ideal():
    s = make_silo(local_miss_predictor=True, directory_cache=True)
    assert s.local_mp == "ideal"
    assert s.dir_cache == "ideal"
    assert s.missmaps is None and s.sram_dir_cache is None


def test_config_rejects_unknown_variant():
    with pytest.raises(ValueError):
        HierarchyConfig(llc_kind="private_vault",
                        local_miss_predictor="magic")
    with pytest.raises(ValueError):
        HierarchyConfig(llc_kind="private_vault",
                        directory_cache="magic")
