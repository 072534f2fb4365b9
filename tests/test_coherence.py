"""Coherence states, sharer table, duplicate-tag directory."""

import pytest

from repro.coherence.states import (
    INVALID, SHARED, EXCLUSIVE, OWNED, MODIFIED, is_dirty, state_name,
    MESI_STATES, MOESI_STATES)
from repro.coherence.sharer_table import SharerTable
from repro.coherence.dup_tag_directory import DupTagDirectory
from repro.caches.vault_cache import VaultCache


# -- states ---------------------------------------------------------------

def test_dirty_states():
    assert is_dirty(MODIFIED) and is_dirty(OWNED)
    assert not is_dirty(SHARED) and not is_dirty(EXCLUSIVE)
    assert not is_dirty(INVALID)


def test_state_names():
    assert [state_name(s) for s in MOESI_STATES] == \
        ["I", "S", "E", "O", "M"]
    with pytest.raises(ValueError):
        state_name(99)


def test_owned_only_in_moesi():
    assert OWNED not in MESI_STATES
    assert OWNED in MOESI_STATES


def test_read_response_transitions():
    # Dirty holders keep ownership as O (the MOESI advantage: no
    # memory writeback to serve a reader); the reader gets S.
    from repro.verify.protocol_spec import LOAD, build_table

    rule = build_table("moesi")[(LOAD, INVALID)]
    assert rule.peers == {MODIFIED: OWNED, OWNED: OWNED,
                          EXCLUSIVE: SHARED, SHARED: SHARED}
    assert rule.requester_next(True) == SHARED


# -- sharer table ---------------------------------------------------------

def test_sharer_add_remove():
    t = SharerTable(4)
    t.add_sharer(10, 1)
    t.add_sharer(10, 3)
    assert t.sharers(10) == 0b1010
    assert t.sharer_list(10) == [1, 3]
    t.remove_sharer(10, 1)
    assert t.sharers(10) == 0b1000
    t.remove_sharer(10, 3)
    assert not t.is_cached(10)


def test_exclusive_owner():
    t = SharerTable(4)
    t.add_sharer(10, 2, exclusive=True)
    assert t.owner(10) == 2
    t.clear_owner(10)
    assert t.owner(10) == SharerTable.NO_OWNER


def test_owner_cleared_when_owner_leaves():
    t = SharerTable(4)
    t.add_sharer(10, 2, exclusive=True)
    t.add_sharer(10, 1)
    t.remove_sharer(10, 2)
    assert t.owner(10) == SharerTable.NO_OWNER
    assert t.sharers(10) == 0b0010


def test_set_owner_requires_sharing():
    t = SharerTable(4)
    with pytest.raises(KeyError):
        t.set_owner(10, 1)


def test_drop_block():
    t = SharerTable(4)
    t.add_sharer(10, 0)
    t.drop_block(10)
    assert len(t) == 0


def test_rejects_bad_core_count():
    with pytest.raises(ValueError):
        SharerTable(0)


# -- duplicate-tag directory ----------------------------------------------

def make_dir(cores=4, sets=16):
    vaults = [VaultCache(sets * 64) for _ in range(cores)]
    return DupTagDirectory(vaults), vaults


def test_directory_mirrors_vaults():
    d, vaults = make_dir()
    vaults[1].insert(5, SHARED)
    vaults[3].insert(5, SHARED)
    assert d.sharers(5) == [1, 3]
    assert d.holder_states(5) == [(1, SHARED), (3, SHARED)]
    assert d.is_cached(5)
    vaults[1].invalidate(5)
    assert d.sharers(5) == [3]


def test_home_node_interleaving():
    d, _ = make_dir()
    assert d.home_node(5) == 1
    assert d.home_node(8) == 0


def test_entry_access():
    d, vaults = make_dir()
    vaults[2].insert(7, MODIFIED)
    assert d.entry(7, 2) == (7, MODIFIED)
    assert d.entry(7, 0) is None


def test_directory_capacity():
    d, _ = make_dir(cores=4, sets=16)
    assert d.total_entries() == 64
    assert d.storage_bits_per_entry() == 31  # tag + 3 state bits (Fig. 9)


def test_residency_index_tracks_mutations():
    d, vaults = make_dir()
    vaults[0].insert(5, SHARED)
    vaults[2].insert(5, MODIFIED)
    assert d.sharers(5) == [0, 2]
    # A conflict eviction in vault 0 (same set, different tag) must
    # move the bit from the victim to the new tag.
    victim = vaults[0].insert(5 + 16, SHARED)
    assert victim == (5, SHARED)
    assert d.sharers(5) == [2]
    assert d.sharers(5 + 16) == [0]
    vaults[2].clear()
    assert not d.is_cached(5)
    assert d.check_consistent()


def test_check_consistent_catches_poisoned_index():
    d, vaults = make_dir()
    vaults[1].insert(9, SHARED)
    # Claim a vault that does not hold the block also holds it.
    d._holders[9] |= 1 << 3
    with pytest.raises(AssertionError):
        d.check_consistent()


def test_check_consistent_catches_detached_vault():
    d, vaults = make_dir()
    vaults[2].holder_map = {}
    with pytest.raises(AssertionError):
        d.check_consistent()


def test_requires_equal_vaults():
    vaults = [VaultCache(16 * 64), VaultCache(32 * 64)]
    with pytest.raises(ValueError):
        DupTagDirectory(vaults)
    with pytest.raises(ValueError):
        DupTagDirectory([])
