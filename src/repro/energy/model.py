"""Hybrid energy model: technology parameters x simulation statistics.

Follows Sec. VI-B: per-access dynamic energies and static powers come
from the technology study (Table III); access counts come from the
simulator or, for an analytic estimate, from the estimator.  One
formula, :func:`energy_breakdown`, turns an organization's three
access counts (LLC, main memory, conventional DRAM cache) into the
breakdown every result records; ``Fig. 13`` plots its dynamic split
between the LLC and main memory, normalized to the baseline.
"""

from repro import params as P
from repro.sim.config import LLC_SHARED


def energy_breakdown(llc_kind, num_cores, llc_accesses, memory_accesses,
                     dram_cache_accesses):
    """Dynamic energy (nJ) and static power (W) of one measurement
    window: ``llc_dynamic_nj``, ``memory_dynamic_nj``,
    ``total_dynamic_nj``, ``llc_static_w`` and ``memory_static_w``.

    A shared LLC is one SRAM bank per core, a SILO LLC one DRAM vault
    per core.  A conventional DRAM cache is commodity DRAM, so its
    accesses are charged at main-memory dynamic energy."""
    if llc_kind == LLC_SHARED:
        llc_dyn = llc_accesses * P.SRAM_LLC_DYNAMIC_NJ_PER_ACCESS
        llc_static = num_cores * P.SRAM_LLC_STATIC_W_PER_BANK
    else:
        llc_dyn = llc_accesses * P.VAULT_DYNAMIC_NJ_PER_ACCESS
        llc_static = num_cores * P.VAULT_STATIC_W
    mem_dyn = ((memory_accesses + dram_cache_accesses)
               * P.MEMORY_DYNAMIC_NJ_PER_ACCESS)
    return {
        "llc_dynamic_nj": llc_dyn,
        "memory_dynamic_nj": mem_dyn,
        "total_dynamic_nj": llc_dyn + mem_dyn,
        "llc_static_w": llc_static,
        "memory_static_w": P.MEMORY_STATIC_W,
    }


class EnergyModel:
    """The energy breakdown of a live system's counters."""

    def breakdown(self, system):
        """:func:`energy_breakdown` of everything the system counted
        since reset_stats."""
        return energy_breakdown(system.kind, system.num_cores,
                                system.llc_accesses,
                                system.memory.accesses,
                                system.dram_cache_accesses)
