"""System configuration builders (Sec. VI-A) and Table II encoding."""

import pytest

from repro import params as P
from repro.cores.perf_model import CoreParams
from repro.sim.system import System
from repro.sim.config import HierarchyConfig, MIN_CACHE_BLOCKS
from repro.core.config import TABLE_II, TABLE_III, EVALUATED_SYSTEMS
from repro.core.systems import (baseline_config, baseline_dram_cache_config,
                                silo_config, silo_co_config,
                                vaults_sh_config, three_level_sram_config,
                                three_level_edram_config,
                                three_level_silo_config, system_config,
                                check_scale, SYSTEM_LABELS)


def test_baseline_matches_table_ii():
    c = baseline_config()
    assert c.llc_kind == "shared"
    assert c.llc_size_bytes == 8 * P.MB
    assert c.llc_ways == 16
    assert c.llc_latency == 5
    assert c.dram_cache_bytes is None


def test_baseline_dram_adds_cache():
    c = baseline_dram_cache_config()
    assert c.dram_cache_bytes == 8 * P.GB
    assert c.dram_cache_latency == 80


def test_silo_config():
    c = silo_config()
    assert c.llc_kind == "private_vault"
    assert c.llc_size_bytes == 256 * P.MB
    assert c.llc_latency == 23
    assert not c.local_miss_predictor


def test_silo_co_config():
    c = silo_co_config()
    assert c.llc_size_bytes == 512 * P.MB
    assert c.llc_latency == 32


def test_vaults_sh_is_shared_aggregate():
    c = vaults_sh_config()
    assert c.llc_kind == "shared"
    assert c.llc_size_bytes == 16 * 256 * P.MB
    assert c.llc_latency == 23
    assert c.llc_ways == 1  # direct-mapped TAD vaults


def test_three_level_variants():
    sram = three_level_sram_config()
    edram = three_level_edram_config()
    silo3 = three_level_silo_config()
    assert sram.l2_size_bytes == P.L2_SIZE_BYTES
    assert sram.llc_size_bytes == 32 * P.MB
    assert edram.llc_size_bytes == 128 * P.MB
    assert sram.llc_latency == edram.llc_latency == 7
    assert silo3.l2_size_bytes == P.L2_SIZE_BYTES
    assert silo3.llc_kind == "private_vault"


def test_system_config_registry():
    for name in EVALUATED_SYSTEMS:
        c = system_config(name)
        assert name in SYSTEM_LABELS
        assert c.name == name
    with pytest.raises(KeyError):
        system_config("bogus")


def test_scaled_floors_small_caches():
    c = baseline_config(scale=4096)
    assert c.scaled(P.L1_SIZE_BYTES) == MIN_CACHE_BLOCKS * 64


def test_scaled_divides():
    c = baseline_config(scale=64)
    assert c.scaled(8 * P.MB) == 128 * 1024


def test_config_validation():
    with pytest.raises(ValueError):
        HierarchyConfig(llc_kind="bogus")
    with pytest.raises(ValueError):
        HierarchyConfig(num_cores=0)
    with pytest.raises(ValueError):
        HierarchyConfig(scale=0)
    with pytest.raises(ValueError):
        # opts are SILO-only
        HierarchyConfig(llc_kind="shared", local_miss_predictor=True)


@pytest.mark.parametrize("scale", [1, 64, 128, 256, 512])
def test_every_system_builds_at_the_supported_scales(scale):
    check_scale(scale)
    for name in SYSTEM_LABELS:
        config = system_config(name, scale=scale)
        if scale >= 64:     # scale 1 would allocate gigabytes of vaults
            System(config, [CoreParams()] * config.num_cores)


@pytest.mark.parametrize("scale,level", [
    (3, "L1"), (5, "L1"), (48, "LLC"), (100, "LLC")])
def test_unbuildable_scales_fail_at_the_config(scale, level):
    with pytest.raises(ValueError, match="%s of .* at scale %d"
                       % (level, scale)):
        baseline_config(scale=scale)
    with pytest.raises(ValueError):
        check_scale(scale)


@pytest.mark.parametrize("cores", [True, 4.0, "4"])
def test_num_cores_must_be_an_integer(cores):
    with pytest.raises(ValueError, match="num_cores"):
        HierarchyConfig(num_cores=cores)


def test_table_ii_encoding():
    assert TABLE_II["processor"]["cores"] == 16
    assert TABLE_II["l1"]["size_bytes"] == 64 * 1024
    assert TABLE_II["baseline_llc"]["avg_round_trip_cycles"] == 23
    assert TABLE_II["silo_llc"]["vault_total_latency_cycles"] == 23
    assert TABLE_II["silo_llc"]["co_vault_total_latency_cycles"] == 32
    assert TABLE_II["silo_llc"]["protocol"] == "MOESI"
    assert TABLE_II["baseline_llc"]["protocol"] == "MESI"
    assert TABLE_II["main_memory"]["latency_ns"] == 50.0


def test_table_iii_encoding():
    assert TABLE_III["baseline_llc"]["static_w_per_bank"] == 0.030
    assert TABLE_III["silo_llc"]["dynamic_nj_per_access"] == 0.40
    assert TABLE_III["main_memory"]["dynamic_nj_per_access"] == 20.0


def test_table_iv_covers_all_modeled_workloads():
    from repro.core.config import TABLE_IV
    from repro.workloads.scaleout import SCALEOUT_WORKLOADS
    from repro.workloads.enterprise import ENTERPRISE_WORKLOADS
    modeled = set(SCALEOUT_WORKLOADS) | set(ENTERPRISE_WORKLOADS)
    assert set(TABLE_IV) == modeled
    for meta in TABLE_IV.values():
        assert meta["suite"] in ("scale-out", "enterprise")
        assert meta["software"]
