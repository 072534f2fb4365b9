"""System configuration for the trace-driven simulator.

A :class:`HierarchyConfig` fully describes one evaluated system's
memory hierarchy (Table II).  Capacities are *full-scale*; the system
builder divides them by ``scale`` -- the same divisor the workload
generator applies to footprints -- preserving every capacity ratio of
the real machine.
"""

import math
from dataclasses import dataclass
from typing import Optional, Union

from repro import params as P
from repro.caches.nuca import SharedNUCA
from repro.caches.sram_cache import whole_sets
from repro.fields import check_fields

LLC_SHARED = "shared"
LLC_PRIVATE_VAULT = "private_vault"

#: Smallest cache we allow after scaling, to keep set behaviour sane
#: (64 blocks = 8 sets at 8 ways; below this a scaled L1 degenerates).
MIN_CACHE_BLOCKS = 64


@dataclass(frozen=True)
class HierarchyConfig:
    """Complete description of one simulated system."""

    name: str = "baseline"
    num_cores: int = P.NUM_CORES
    scale: int = 64

    # Private on-chip SRAM caches
    l1_size_bytes: int = P.L1_SIZE_BYTES
    l1_ways: int = P.L1_WAYS
    l1_latency: int = P.L1_LATENCY
    l2_size_bytes: Optional[int] = None       # 3-level studies only
    l2_ways: int = P.L2_WAYS
    l2_latency: int = P.L2_LATENCY

    # LLC organization
    llc_kind: str = LLC_SHARED
    llc_size_bytes: int = P.BASELINE_LLC_SIZE_BYTES  # total (shared) or
    #                                                  per-core (vault)
    llc_ways: int = P.BASELINE_LLC_WAYS              # shared only
    llc_latency: int = P.BASELINE_LLC_BANK_LATENCY   # bank / vault access

    # Conventional DRAM cache behind a shared LLC
    dram_cache_bytes: Optional[int] = None
    dram_cache_latency: int = P.TRAD_DRAM_CACHE_LATENCY

    # Main memory
    memory_latency: int = P.MEMORY_LATENCY
    memory_queueing: bool = True

    # Mesh
    hop_latency: int = P.MESH_HOP_LATENCY

    # SILO performance optimizations (Sec. V-C).  Each accepts:
    # False (off), True / "ideal" (the paper's Fig. 12 limit study:
    # zero-cost, always-correct), or a realistic implementation:
    # "missmap" (per-segment presence bit-vectors in SRAM, [24]) for the
    # miss predictor and "sram" (LRU cache of directory sets at the home
    # node, [25]) for the directory cache.
    local_miss_predictor: Union[bool, str] = False
    directory_cache: Union[bool, str] = False

    # Coherence protocol for the private organization: "moesi" (the
    # paper's choice, Sec. V-B) or "mesi" (ablation: a dirty block must
    # be written back to memory before a reader can be served).
    protocol: str = "moesi"

    # Optional L1-D stride prefetcher (Table II lists one; the workload
    # models describe post-prefetch residual misses, so it defaults off
    # -- see DESIGN.md).
    l1_prefetcher: bool = False

    # Victim Replication (Zhang & Asanovic [43], discussed in Sec.
    # VIII): clean L1 victims are replicated into the requester's local
    # LLC bank so later reads avoid the mesh.  A D-NUCA-style
    # comparison point for shared organizations.
    victim_replication: bool = False

    #: Bounds and choices (repro.fields): counts, sizes and ways are
    #: positive and latencies not negative; an optimization is matched
    #: by type as well as value, as 1 == True would run with it off.
    LIMITS = {
        **dict.fromkeys(("num_cores", "scale", "l1_size_bytes", "l1_ways",
                         "l2_size_bytes", "l2_ways", "llc_size_bytes",
                         "llc_ways", "dram_cache_bytes"), (1, None)),
        **dict.fromkeys(("l1_latency", "l2_latency", "llc_latency",
                         "dram_cache_latency", "memory_latency",
                         "hop_latency"), (0, None)),
        "llc_kind": (LLC_SHARED, LLC_PRIVATE_VAULT),
        "protocol": ("moesi", "mesi"),
        "local_miss_predictor": (False, True, "ideal", "missmap"),
        "directory_cache": (False, True, "ideal", "sram"),
    }

    def __post_init__(self):
        check_fields(self)
        # Every System builds a square mesh of its cores, one LLC bank
        # or vault per tile.
        if math.isqrt(self.num_cores) ** 2 != self.num_cores:
            raise ValueError("num_cores=%d is not a perfect square; "
                             "every system is a square mesh"
                             % self.num_cores)
        if self.llc_kind == LLC_SHARED and (self.local_miss_predictor
                                            or self.directory_cache):
            raise ValueError("miss predictor / directory cache are SILO "
                             "(private vault) optimizations")
        if self.victim_replication and self.llc_kind != LLC_SHARED:
            raise ValueError("victim replication applies to shared "
                             "NUCA organizations only")
        self.check_geometry()

    def check_geometry(self):
        """Raise ValueError unless every cache of this system, scaled,
        holds a whole number of sets, banks and pages: the cache
        classes' own geometry checks, run before anything is built, so
        a request that names such a system fails where it is made."""
        def check(level, geometry, size, *args):
            try:
                geometry(self.scaled(size), *args)
            except ValueError as e:
                raise ValueError("%s of %dB at scale %d: %s"
                                 % (level, size, self.scale, e)) from None

        check("L1", whole_sets, self.l1_size_bytes, self.l1_ways)
        if self.l2_size_bytes:
            check("L2", whole_sets, self.l2_size_bytes, self.l2_ways)
        if self.llc_kind == LLC_SHARED:
            check("LLC", SharedNUCA.bank_geometry, self.llc_size_bytes,
                  self.llc_ways, self.num_cores)
        else:
            check("vault", whole_sets, self.llc_size_bytes, 1)
        if self.dram_cache_bytes:
            check("DRAM cache", whole_sets, self.dram_cache_bytes, 1,
                  P.TRAD_DRAM_CACHE_PAGE_BYTES)

    def cache_lines(self):
        """Lines and pages this system holds once built, scaled: both
        L1s and any L2 of every core, the LLC (a vault per core), the
        DRAM cache's pages, and the mesh's hop table (an entry per
        pair of tiles)."""
        cores = self.num_cores
        per_core = 2 * self.scaled(self.l1_size_bytes)
        if self.l2_size_bytes:
            per_core += self.scaled(self.l2_size_bytes)
        llc = self.scaled(self.llc_size_bytes)
        if self.llc_kind == LLC_PRIVATE_VAULT:
            per_core, llc = per_core + llc, 0
        lines = (cores * per_core + llc) // P.BLOCK_BYTES
        if self.dram_cache_bytes:
            lines += (self.scaled(self.dram_cache_bytes)
                      // P.TRAD_DRAM_CACHE_PAGE_BYTES)
        return lines + cores * cores

    def scaled(self, size_bytes):
        """Scale a capacity down, flooring at MIN_CACHE_BLOCKS blocks."""
        scaled = size_bytes // self.scale
        return max(MIN_CACHE_BLOCKS * P.BLOCK_BYTES, scaled)
