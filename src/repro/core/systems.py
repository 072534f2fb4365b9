"""Builders for every evaluated system configuration (Sec. VI-A).

Each function returns a :class:`repro.sim.config.HierarchyConfig`; pass
it with per-core :class:`CoreParams` to :class:`repro.sim.System`, or
use :func:`repro.sim.driver.simulate`.
"""

from repro import params as P
from repro.sim.config import HierarchyConfig, LLC_SHARED, LLC_PRIVATE_VAULT


def baseline_config(num_cores=P.NUM_CORES, scale=64, **overrides):
    """Scale-out Processors style baseline: 8 MB shared NUCA LLC, 5-cycle
    banks, two-level hierarchy, non-inclusive MESI."""
    kw = dict(
        name="baseline",
        num_cores=num_cores,
        scale=scale,
        llc_kind=LLC_SHARED,
        llc_size_bytes=P.BASELINE_LLC_SIZE_BYTES,
        llc_ways=P.BASELINE_LLC_WAYS,
        llc_latency=P.BASELINE_LLC_BANK_LATENCY,
    )
    kw.update(overrides)
    return HierarchyConfig(**kw)


def baseline_dram_cache_config(num_cores=P.NUM_CORES, scale=64,
                               **overrides):
    """Baseline plus an 8 GB conventional page-based DRAM cache at 40 ns
    (20% faster than memory), perfect miss prediction, infinite
    bandwidth."""
    kw = dict(
        name="baseline_dram",
        dram_cache_bytes=P.TRAD_DRAM_CACHE_SIZE_BYTES,
        dram_cache_latency=P.TRAD_DRAM_CACHE_LATENCY,
    )
    kw.update(overrides)
    return baseline_config(num_cores, scale, **kw)


def silo_config(num_cores=P.NUM_CORES, scale=64, local_miss_predictor=False,
                directory_cache=False, **overrides):
    """SILO: per-core private 256 MB latency-optimized vaults (23-cycle
    total access), inclusive MOESI with in-DRAM duplicate-tag
    directory."""
    kw = dict(
        name="silo",
        num_cores=num_cores,
        scale=scale,
        llc_kind=LLC_PRIVATE_VAULT,
        llc_size_bytes=P.SILO_VAULT_SIZE_BYTES,
        llc_latency=P.SILO_VAULT_TOTAL_LATENCY,
        local_miss_predictor=local_miss_predictor,
        directory_cache=directory_cache,
    )
    kw.update(overrides)
    return HierarchyConfig(**kw)


def silo_co_config(num_cores=P.NUM_CORES, scale=64, **overrides):
    """SILO with capacity-optimized 512 MB vaults (32-cycle access)."""
    kw = dict(
        name="silo_co",
        llc_size_bytes=P.SILO_CO_VAULT_SIZE_BYTES,
        llc_latency=P.SILO_CO_VAULT_TOTAL_LATENCY,
    )
    kw.update(overrides)
    return silo_config(num_cores, scale, **kw)


def vaults_sh_config(num_cores=P.NUM_CORES, scale=64, **overrides):
    """Vaults-Sh: latency-optimized vaults stacked over the cores but
    shared by all in a NUCA address-interleaved manner (aggregate 4 GB);
    average hit round trip 41 cycles.  Like the vaults it is built from,
    the organization is direct-mapped (TAD blocks)."""
    kw = dict(
        name="vaults_sh",
        num_cores=num_cores,
        scale=scale,
        llc_kind=LLC_SHARED,
        llc_size_bytes=P.SILO_VAULT_SIZE_BYTES * num_cores,
        llc_ways=1,
        llc_latency=P.SILO_VAULT_TOTAL_LATENCY,
    )
    kw.update(overrides)
    return HierarchyConfig(**kw)


def baseline_vr_config(num_cores=P.NUM_CORES, scale=64, **overrides):
    """Related-work comparison (Sec. VIII): the baseline shared NUCA
    LLC with Victim Replication [43] -- clean L1 victims replicated in
    the requester's local bank.  D-NUCA-style locality without private
    capacity."""
    kw = dict(
        name="baseline_vr",
        victim_replication=True,
    )
    kw.update(overrides)
    return baseline_config(num_cores, scale, **kw)


def three_level_sram_config(num_cores=P.NUM_CORES, scale=64, **overrides):
    """Intel-like 3-level design: private 512 KB L2s + 32 MB SRAM NUCA
    LLC with 7-cycle banks."""
    kw = dict(
        name="3level_sram",
        num_cores=num_cores,
        scale=scale,
        l2_size_bytes=P.L2_SIZE_BYTES,
        llc_kind=LLC_SHARED,
        llc_size_bytes=P.THREE_LEVEL_SRAM_LLC_BYTES,
        llc_ways=P.BASELINE_LLC_WAYS,
        llc_latency=P.THREE_LEVEL_LLC_BANK_LATENCY,
    )
    kw.update(overrides)
    return HierarchyConfig(**kw)


def three_level_edram_config(num_cores=P.NUM_CORES, scale=64, **overrides):
    """POWER9-like 3-level design: 128 MB eDRAM NUCA LLC, optimistically
    at the same 7-cycle bank latency as the SRAM design."""
    kw = dict(
        name="3level_edram",
        llc_size_bytes=P.THREE_LEVEL_EDRAM_LLC_BYTES,
    )
    kw.update(overrides)
    return three_level_sram_config(num_cores, scale, **kw)


def three_level_silo_config(num_cores=P.NUM_CORES, scale=64, **overrides):
    """SILO with private 512 KB L2s between the L1s and the vaults."""
    kw = dict(
        name="3level_silo",
        l2_size_bytes=P.L2_SIZE_BYTES,
    )
    kw.update(overrides)
    return silo_config(num_cores, scale, **kw)


_BUILDERS = {
    "baseline": baseline_config,
    "baseline_dram": baseline_dram_cache_config,
    "baseline_vr": baseline_vr_config,
    "silo": silo_config,
    "silo_co": silo_co_config,
    "vaults_sh": vaults_sh_config,
    "3level_sram": three_level_sram_config,
    "3level_edram": three_level_edram_config,
    "3level_silo": three_level_silo_config,
}

SYSTEM_LABELS = {
    "baseline": "Baseline",
    "baseline_dram": "Baseline+DRAM$",
    "baseline_vr": "Baseline+VR",
    "silo": "SILO",
    "silo_co": "SILO-CO",
    "vaults_sh": "Vaults-Sh",
    "3level_sram": "3level-SRAM",
    "3level_edram": "3level-eDRAM",
    "3level_silo": "3level-SILO",
}


def check_scale(scale, num_cores=P.NUM_CORES):
    """Raise ValueError unless every evaluated system builds at
    ``scale`` (see :meth:`HierarchyConfig.check_geometry`)."""
    for builder in _BUILDERS.values():
        builder(num_cores=num_cores, scale=scale)


def system_config(name, num_cores=P.NUM_CORES, scale=64, **overrides):
    """Build any evaluated system by name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError("unknown system %r (choose from %s)"
                       % (name, sorted(_BUILDERS)))
    return builder(num_cores=num_cores, scale=scale, **overrides)
