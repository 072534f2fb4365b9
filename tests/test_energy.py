"""Energy model (Table III, Fig. 13)."""

import pytest

from repro.cores.perf_model import CoreParams
from repro.energy.model import EnergyModel, energy_breakdown
from repro.sim.config import HierarchyConfig
from repro.sim.summary import RunSummary
from repro.sim.system import System


def run_small(kind):
    config = HierarchyConfig(
        name="e", num_cores=4, scale=1,
        l1_size_bytes=4096, l1_ways=4,
        llc_kind=kind,
        llc_size_bytes=64 * 1024,
        llc_ways=4 if kind == "shared" else 16,
        llc_latency=5 if kind == "shared" else 23,
        memory_queueing=False)
    s = System(config, [CoreParams()] * 4)
    for b in range(100):
        s.access(b % 4, b, False, False)
    return s


def test_shared_llc_energy_uses_sram_numbers():
    s = run_small("shared")
    bd = EnergyModel().breakdown(s)
    assert bd["llc_dynamic_nj"] == pytest.approx(s.llc_accesses * 0.25)
    assert bd["llc_static_w"] == pytest.approx(4 * 0.030)


def test_vault_energy_uses_dram_numbers():
    s = run_small("private_vault")
    bd = EnergyModel().breakdown(s)
    assert bd["llc_dynamic_nj"] == pytest.approx(s.llc_accesses * 0.40)
    assert bd["llc_static_w"] == pytest.approx(4 * 0.120)


def test_memory_dynamic_counts_reads_and_writes():
    s = run_small("shared")
    bd = EnergyModel().breakdown(s)
    assert bd["memory_dynamic_nj"] == pytest.approx(
        s.memory.accesses * 20.0)


def test_total_and_power_helpers():
    # 400 SRAM LLC accesses at 0.25 nJ, 10 + 5 memory and DRAM-cache
    # accesses at 20 nJ: 100 + 300 nJ.
    bd = energy_breakdown("shared", 4, 400, 10, 5)
    assert bd["llc_dynamic_nj"] == pytest.approx(100.0)
    assert bd["memory_dynamic_nj"] == pytest.approx(300.0)
    assert bd["total_dynamic_nj"] == pytest.approx(400.0)
    summary = RunSummary.snapshot(run_small("shared"), [0], 0, 25, 0.0,
                                  0.0)
    summary.energy = bd
    assert summary.llc_power_w(1.0) == pytest.approx(4 * 0.030 + 100e-9)
    with pytest.raises(ValueError):
        summary.llc_power_w(0.0)


def test_silo_spends_more_llc_energy_but_less_memory():
    """Fig. 13's mechanism: SILO has pricier LLC accesses but far fewer
    memory accesses at equal traffic."""
    shared = run_small("shared")
    silo = run_small("private_vault")
    m = EnergyModel()
    assert (m.breakdown(silo)["llc_dynamic_nj"]
            / max(1, silo.llc_accesses)
            > m.breakdown(shared)["llc_dynamic_nj"]
            / max(1, shared.llc_accesses))
