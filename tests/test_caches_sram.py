"""Set-associative cache unit and property tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.sram_cache import SetAssocCache


def make(size=4096, ways=4, **kw):
    return SetAssocCache(size, ways, **kw)


def test_geometry():
    c = make(size=4096, ways=4)
    assert c.num_sets == 16
    assert c.capacity_blocks == 64


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        SetAssocCache(100, 3)
    with pytest.raises(ValueError):
        SetAssocCache(0, 4)


def test_insert_lookup_roundtrip():
    c = make()
    assert c.insert(42, "S") is None
    assert c.lookup(42) == "S"
    assert c.contains(42)


def test_miss_returns_none():
    assert make().lookup(7) is None


def test_lru_evicts_least_recent():
    c = SetAssocCache(2 * 64, 2)  # 1 set, 2 ways
    c.insert(0, 1)
    c.insert(1, 2)
    c.lookup(0)            # touch 0; 1 is now LRU
    victim = c.insert(2, 3)
    assert victim == (1, 2)


def test_untouched_lookup_does_not_promote():
    c = SetAssocCache(2 * 64, 2)
    c.insert(0, 1)
    c.insert(1, 2)
    c.lookup(0, touch=False)
    victim = c.insert(2, 3)
    assert victim == (0, 1)


def test_reinsert_updates_state_without_eviction():
    c = make()
    c.insert(5, "a")
    assert c.insert(5, "b") is None
    assert c.lookup(5) == "b"
    assert c.occupancy() == 1


def test_update_requires_residency():
    c = make()
    with pytest.raises(KeyError):
        c.update(5, "x")
    c.insert(5, "a")
    c.update(5, "b")
    assert c.lookup(5) == "b"


def test_invalidate():
    c = make()
    c.insert(5, "a")
    assert c.invalidate(5) == "a"
    assert c.invalidate(5) is None
    assert not c.contains(5)


def test_index_stride_separates_bank_bits():
    c = make(index_stride=16)
    # blocks 0 and 16 differ only in bank-select bits: same set index
    assert c.set_index(0) == c.set_index(1)
    assert c.set_index(0) != c.set_index(16)


def test_blocks_iteration_and_clear():
    c = make()
    for b in range(10):
        c.insert(b, b)
    assert dict(c.blocks()) == {b: b for b in range(10)}
    c.clear()
    assert c.occupancy() == 0


class _RefLRU:
    """Reference model: fully explicit per-set LRU lists."""

    def __init__(self, sets, ways):
        self.sets = [dict() for _ in range(sets)]
        self.ways = ways
        self.nsets = sets

    def access(self, block):
        entries = self.sets[block % self.nsets]
        hit = block in entries
        if hit:
            del entries[block]
        elif len(entries) >= self.ways:
            del entries[next(iter(entries))]
        entries[block] = True
        return hit


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=300))
def test_lru_matches_reference_model(blocks):
    """Hit/miss sequence must match an independently written LRU."""
    cache = SetAssocCache(8 * 64, 2)  # 4 sets x 2 ways
    ref = _RefLRU(4, 2)
    for b in blocks:
        hit_cache = cache.lookup(b) is not None
        if not hit_cache:
            cache.insert(b, True)
        assert hit_cache == ref.access(b)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=200))
def test_occupancy_never_exceeds_capacity(blocks):
    cache = SetAssocCache(16 * 64, 4)
    for b in blocks:
        if cache.lookup(b) is None:
            cache.insert(b, 0)
    assert cache.occupancy() <= cache.capacity_blocks
    for entries in cache._sets:
        assert len(entries) <= cache.ways


def test_insert_cold_lands_at_lru():
    c = SetAssocCache(2 * 64, 2)
    c.insert(0, 1)
    c.insert_cold(1, 2)        # replica: lowest priority
    victim = c.insert(2, 3)    # must evict the replica, not block 0
    assert victim == (1, 2)
    assert c.contains(0)


def test_insert_cold_noop_when_resident():
    c = SetAssocCache(2 * 64, 2)
    c.insert(0, 1)
    assert c.insert_cold(0, 9) is None
    assert c.lookup(0) == 1  # untouched


def test_insert_cold_evicts_when_full():
    c = SetAssocCache(2 * 64, 2)
    c.insert(0, 1)
    c.insert(1, 2)
    victim = c.insert_cold(2, 3)
    assert victim == (0, 1)  # LRU evicted to make room
