"""Fault injection, SECDED ECC and graceful vault degradation.

The ECC tests are exhaustive (every single-bit flip of the 72-bit
codeword corrected, every double-bit flip detected); the recovery
tests drive the System's degraded paths deterministically with
rate-1.0 injectors and scheduled vault events.
"""

import pytest

from repro.coherence.states import (SHARED, EXCLUSIVE, OWNED, MODIFIED)
from repro.cores.perf_model import CoreParams
from repro.faults import ecc
from repro.faults.injector import (FaultInjector, SITE_DATA, SITE_TAG,
                                   SITE_STALL)
from repro.faults.plan import FaultPlan, current_plan, use_plan
from repro.sim.config import HierarchyConfig
from repro.sim.system import System

WORDS = (0, 1, 0xDEADBEEFCAFEF00D, (1 << 64) - 1, 0x0123456789ABCDEF)

#: Codeword positions that carry data bits: 1..71 minus powers of two.
DATA_POSITIONS = [p for p in range(1, ecc.CODEWORD_BITS)
                  if p & (p - 1) != 0]


# -- ECC ---------------------------------------------------------------


def test_codeword_geometry():
    assert ecc.CODEWORD_BITS == 72
    assert len(DATA_POSITIONS) == 64


@pytest.mark.parametrize("word", WORDS)
def test_clean_codeword_decodes_ok(word):
    decoded, status = ecc.decode(ecc.encode(word))
    assert status == ecc.OK
    assert decoded == word


@pytest.mark.parametrize("word", WORDS)
def test_every_single_bit_flip_corrected(word):
    """All 72 positions -- the 64 data bits and the 8 check bits --
    come back corrected to the original word."""
    cw = ecc.encode(word)
    for pos in range(ecc.CODEWORD_BITS):
        decoded, status = ecc.decode(cw ^ (1 << pos))
        assert status == ecc.CORRECTED, "position %d" % pos
        assert decoded == word, "position %d" % pos


def test_all_64_data_bit_flips_corrected():
    """The acceptance property stated on the data payload: flipping
    any one of the 64 stored data bits is corrected."""
    word = 0xA5A5A5A5A5A5A5A5
    cw = ecc.encode(word)
    hit_data_bits = 0
    for pos in DATA_POSITIONS:
        decoded, status = ecc.decode(cw ^ (1 << pos))
        assert status == ecc.CORRECTED
        assert decoded == word
        hit_data_bits += 1
    assert hit_data_bits == 64


@pytest.mark.parametrize("word", (0, 0xDEADBEEFCAFEF00D))
def test_every_double_bit_flip_detected(word):
    """Exhaustive C(72,2) = 2556 double flips: all detected, none
    miscorrected into silently wrong data."""
    cw = ecc.encode(word)
    pairs = 0
    for a in range(ecc.CODEWORD_BITS):
        for b in range(a + 1, ecc.CODEWORD_BITS):
            _, status = ecc.decode(cw ^ (1 << a) ^ (1 << b))
            assert status == ecc.DETECTED, "positions %d,%d" % (a, b)
            pairs += 1
    assert pairs == 72 * 71 // 2


def test_pack_entry_round_trip():
    for tag in (-1, 0, 1, 12345):
        for state in range(5):
            word = ecc.pack_entry(tag, state)
            assert ecc.unpack_entry(word) == (tag, state)


def test_line_word_is_deterministic_and_spread():
    a, b = ecc.line_word(100), ecc.line_word(101)
    assert a == ecc.line_word(100)
    assert a != b
    assert 0 <= a < (1 << 64)


# -- FaultPlan ---------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(data_flip_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(stall_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(stall_retries_max=0)
    with pytest.raises(ValueError):
        FaultPlan(vault_events=((1, 0, "explode"),))
    with pytest.raises(ValueError):
        FaultPlan(vault_events=((5, 0, "offline"), (1, 0, "online")))


def test_plan_activity():
    assert not FaultPlan().active()
    assert not FaultPlan(seed=42).active()
    assert FaultPlan(data_flip_rate=1e-6).active()
    assert FaultPlan(vault_events=((1, 0, "offline"),)).active()


def test_ambient_plan_context():
    assert current_plan() is None
    plan = FaultPlan(data_flip_rate=0.5)
    with use_plan(plan):
        assert current_plan() is plan
    assert current_plan() is None


# -- FaultInjector draw stream ----------------------------------------


def test_zero_rate_draws_nothing():
    inj = FaultInjector(FaultPlan(seed=1), 4)
    assert inj.data_fault(0, 100) is None
    assert inj.tag_fault(0, 7) is None
    assert inj.channel_stall(50) == 0.0
    assert inj._counters == [0, 0, 0, 0]
    assert inj.injected == 0


def test_rate_one_single_bit_always_corrected():
    plan = FaultPlan(seed=3, data_flip_rate=1.0, tag_flip_rate=1.0,
                     double_bit_fraction=0.0)
    inj = FaultInjector(plan, 4)
    for i in range(50):
        assert inj.data_fault(0, i) is True
        assert inj.tag_fault(0, ecc.line_word(i)) is True
    assert inj.injected == 100
    assert inj.corrected == 100
    assert inj.uncorrectable == 0


def test_rate_one_double_bit_always_uncorrectable():
    plan = FaultPlan(seed=3, data_flip_rate=1.0, double_bit_fraction=1.0)
    inj = FaultInjector(plan, 4)
    for i in range(50):
        assert inj.data_fault(0, i) is False
    assert inj.uncorrectable == 50


def test_target_filter_skips_other_vaults_without_drawing():
    plan = FaultPlan(seed=3, data_flip_rate=1.0, target=1)
    inj = FaultInjector(plan, 4)
    assert inj.data_fault(0, 100) is None
    assert inj._counters[SITE_DATA] == 0       # filtered, not drawn
    assert inj.data_fault(1, 100) is not None
    assert inj._counters[SITE_DATA] == 1


def test_fault_sets_nest_across_rates():
    """The counters at which faults fire at a low rate are a subset of
    those at a higher rate (same seed) -- the monotonicity backbone."""
    def fires(rate, n=5000):
        inj = FaultInjector(FaultPlan(seed=9, tag_flip_rate=rate), 1)
        out = set()
        for i in range(n):
            before = inj._counters[SITE_TAG]
            if inj.tag_fault(0, i) is not None:
                out.add(before)
        return out

    low, mid, high = fires(1e-3), fires(1e-2), fires(1e-1)
    assert low <= mid <= high
    assert len(low) < len(high)


def test_channel_stall_penalty_and_counters():
    plan = FaultPlan(seed=5, stall_rate=1.0, stall_retries_max=3)
    inj = FaultInjector(plan, 4)
    penalties = [inj.channel_stall(50) for _ in range(20)]
    assert all(p > 0 for p in penalties)
    # retries in 1..3 -> penalty = 50 * (2^r - 1) in {50, 150, 350}
    assert set(penalties) <= {50.0, 150.0, 350.0}
    assert inj.stall_events == 20
    assert inj.stall_cycles == sum(penalties)


# -- system-level recovery --------------------------------------------


def make_silo(cores=4, vault_blocks=256, l2=None):
    config = HierarchyConfig(
        name="test_faults_silo", num_cores=cores, scale=1,
        l1_size_bytes=4096, l1_ways=4, l2_size_bytes=l2,
        llc_kind="private_vault", llc_size_bytes=vault_blocks * 64,
        llc_latency=23, memory_queueing=False)
    return System(config, [CoreParams()] * cores)


def make_shared(cores=4, bank_blocks=256):
    config = HierarchyConfig(
        name="test_faults_shared", num_cores=cores, scale=1,
        l1_size_bytes=4096, l1_ways=4, l2_size_bytes=None,
        llc_kind="shared", llc_size_bytes=bank_blocks * 64 * cores,
        llc_latency=30, memory_queueing=False)
    return System(config, [CoreParams()] * cores)


def attach(system, **plan_kwargs):
    inj = FaultInjector(FaultPlan(**plan_kwargs), system.num_cores)
    system.attach_faults(inj)
    return inj


def test_attach_faults_registers_stats_group():
    s = make_silo()
    attach(s, seed=1, data_flip_rate=0.5)
    names = [g for g in s.stats()]
    assert "faults" in names


def test_stats_name_fault_counters_as_counters_dict():
    s = make_silo()
    inj = attach(s, seed=1, data_flip_rate=0.5)
    for block in range(50):
        s.access(0, block, False, False)
        s.l1d[0].invalidate(block)
        s.access(0, block, False, False)           # vault hit: draws
    assert inj.injected > 0
    assert s.stats()["faults"] == inj.counters_dict()
    assert list(s.stats()["faults"]) == list(inj.counters_dict())


def test_clean_uncorrectable_refetches_without_data_loss():
    s = make_silo()
    s.access(0, 100, False, False)                 # E in vault+L1
    s.l1d[0].invalidate(100)
    inj = attach(s, seed=1, data_flip_rate=1.0, double_bit_fraction=1.0)
    reads_before = s.memory.reads
    lat = s.access(0, 100, False, False)           # vault hit -> fault
    assert inj.uncorrectable == 1
    assert inj.refetches == 1
    assert inj.data_loss_events == 0
    assert s.memory.reads == reads_before + 1      # refetched
    assert lat > s.llc_latency                     # paid the refetch
    assert s.vaults[0].lookup(100) == EXCLUSIVE


def test_dirty_uncorrectable_without_copy_is_data_loss():
    s = make_silo()
    s.access(0, 100, True, False)                  # M in vault+L1
    s.l1d[0].invalidate(100)
    inj = attach(s, seed=1, data_flip_rate=1.0, double_bit_fraction=1.0)
    writes_before = s.memory.writes
    s.access(0, 100, False, False)
    assert inj.data_loss_events == 1
    assert s.memory.writes == writes_before        # nothing to save
    assert inj.refetches == 1


def test_dirty_uncorrectable_with_upper_copy_recovers():
    """An ifetch misses L1I but hits the vault while L1D still holds
    the dirty line -- the surviving copy is written back, no loss."""
    s = make_silo()
    s.access(0, 100, True, False)                  # M in vault+L1D
    inj = attach(s, seed=1, data_flip_rate=1.0, double_bit_fraction=1.0)
    writes_before = s.memory.writes
    s.access(0, 100, False, True)                  # ifetch -> vault hit
    assert inj.uncorrectable == 1
    assert inj.data_loss_events == 0
    assert s.memory.writes == writes_before + 1    # recovered writeback
    assert s.l1d[0].lookup(100) is None            # copies invalidated


def test_corrected_tag_fault_is_transparent():
    s = make_silo()
    s.access(0, 100, False, False)
    s.l1d[0].invalidate(100)
    inj = attach(s, seed=1, tag_flip_rate=1.0, double_bit_fraction=0.0)
    lat = s.access(0, 100, False, False)
    assert inj.corrected == 1
    assert inj.refetches == 0
    assert lat == s.llc_latency                    # no extra latency
    assert s.vaults[0].lookup(100) == EXCLUSIVE


def test_directory_corruption_is_always_recovered():
    """Every injected directory fault leaves the directory consistent:
    corrected flips are scrubbed, uncorrectable ones rebuild the set
    from the vault tags (which check_consistent verifies)."""
    s = make_silo()
    inj = attach(s, seed=2, directory_flip_rate=1.0,
                 double_bit_fraction=0.5)
    for i in range(40):
        s.access(i % 4, 1000 + i, i % 3 == 0, False)
    assert inj.injected > 0
    assert inj.directory_rebuilds > 0              # some were double
    assert inj.corrected > 0                       # some were single
    s.directory.check_consistent()
    assert s.directory.corrupt_entries() == []


def test_check_consistent_rejects_unrecovered_corruption():
    s = make_silo()
    s.access(0, 100, False, False)
    s.directory.mark_corrupt(s.directory.set_index(100), 0)
    with pytest.raises(AssertionError):
        s.directory.check_consistent()
    s.directory.rebuild_set(s.directory.set_index(100))
    s.directory.check_consistent()


def test_vault_offline_drains_dirty_lines():
    s = make_silo()
    s.access(0, 100, True, False)                  # M
    s.access(0, 200, False, False)                 # E
    inj = attach(s, seed=1, vault_events=((10**9, 0, "offline"),))
    writes_before = s.memory.writes
    s._apply_vault_event(0, "offline")
    assert inj.offline[0]
    assert inj.drained_dirty == 1
    assert s.memory.writes == writes_before + 1
    assert s.vaults[0].lookup(100) is None
    assert s.l1d[0].lookup(100) is None


def test_offline_core_runs_write_through_shared_mode():
    s = make_silo()
    inj = attach(s, seed=1, vault_events=((10**9, 0, "offline"),))
    s._apply_vault_event(0, "offline")
    s.access(0, 100, False, False)
    assert inj.remapped_accesses >= 1
    assert s.vaults[0].lookup(100) is None         # vault unused
    assert s.l1d[0].lookup(100) == SHARED          # clamped fill
    writes_before = s.memory.writes
    s.access(0, 100, True, False)
    assert inj.write_throughs >= 1
    assert s.memory.writes == writes_before + 1
    assert s.l1d[0].lookup(100) == SHARED          # never dirty


def test_offline_home_is_served_by_broadcast():
    s = make_silo(cores=4)
    inj = attach(s, seed=1, vault_events=((10**9, 0, "offline"),))
    s._apply_vault_event(0, "offline")
    block = 4                                      # home = 4 % 4 = 0
    assert s.directory.home_node(block) == 0
    s.access(1, block, False, False)
    assert inj.broadcast_snoops >= 1


def test_offline_then_online_restores_normal_fills():
    s = make_silo()
    inj = attach(s, seed=1, vault_events=((10**9, 0, "offline"),))
    s._apply_vault_event(0, "offline")
    s.access(0, 100, False, False)
    s._apply_vault_event(0, "online")
    assert not inj.has_offline
    assert inj.online_events == 1
    s.access(0, 300, False, False)
    assert s.vaults[0].lookup(300) == EXCLUSIVE    # vault in use again


def test_scheduled_vault_events_fire_on_tick():
    s = make_silo()
    inj = attach(s, seed=1, vault_events=((3, 0, "offline"),
                                          (6, 0, "online")))
    for i in range(2):
        s.access(0, 100 + i, False, False)
    assert not inj.offline[0]
    s.access(0, 102, False, False)                 # access #3
    assert inj.offline[0]
    for i in range(3):
        s.access(0, 110 + i, False, False)
    assert not inj.offline[0]
    assert inj.offline_events == 1 and inj.online_events == 1


def test_shared_bank_offline_remaps_all_cores():
    s = make_shared(cores=4)
    inj = attach(s, seed=1, vault_events=((10**9, 0, "offline"),))
    s._apply_vault_event(0, "offline")
    for core in range(4):
        s.access(core, 0, False, False)            # bank_of(0) == 0
        s.l1d[core].invalidate(0)
    assert inj.remapped_accesses >= 4
    assert s.llc.lookup(0) is None                 # never filled


def test_shared_llc_uncorrectable_refetches():
    s = make_shared(cores=4)
    s.access(0, 0, False, False)                   # fill bank 0
    s.l1d[0].invalidate(0)
    inj = attach(s, seed=1, data_flip_rate=1.0, double_bit_fraction=1.0)
    s.access(0, 0, False, False)                   # LLC hit -> fault
    assert inj.uncorrectable == 1
    assert inj.refetches == 1


def test_fault_events_are_traced():
    from repro.obs.trace import EventTracer, EV_FAULT
    s = make_silo()
    s.attach_tracer(EventTracer(capacity=128))
    s.access(0, 100, True, False)
    s.l1d[0].invalidate(100)
    attach(s, seed=1, data_flip_rate=1.0, double_bit_fraction=1.0)
    s.access(0, 100, False, False)
    assert s.tracer.counts.get(EV_FAULT, 0) >= 1


def test_attach_faults_rejects_mismatched_targets():
    s = make_silo(cores=4)
    with pytest.raises(ValueError):
        s.attach_faults(FaultInjector(FaultPlan(data_flip_rate=1.0), 8))


# -- SiloDesign degraded capacity -------------------------------------


def test_degraded_capacity_quantum():
    from repro.core.silo import SiloDesign
    design = SiloDesign(vault_capacity_bytes=256 << 20,
                        vault_raw_latency_cycles=11,
                        vault_total_latency_cycles=23,
                        design_description="test point")
    d = design.degraded_capacity([0, 3], num_cores=16)
    assert d["online_vaults"] == 14
    assert d["offline_vaults"] == 2
    assert d["total_capacity_bytes"] == 14 * (256 << 20)
    assert d["capacity_fraction"] == 14 / 16
    with pytest.raises(ValueError):
        design.degraded_capacity([16], num_cores=16)
