"""System configuration for the trace-driven simulator.

A :class:`HierarchyConfig` fully describes one evaluated system's
memory hierarchy (Table II).  Capacities are *full-scale*; the system
builder divides them by ``scale`` -- the same divisor the workload
generator applies to footprints -- preserving every capacity ratio of
the real machine.
"""

from dataclasses import dataclass
from typing import Optional

from repro import params as P

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
    local_miss_predictor: object = False
    directory_cache: object = False

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

    def __post_init__(self):
        if self.llc_kind not in (LLC_SHARED, LLC_PRIVATE_VAULT):
            raise ValueError("unknown llc_kind %r" % (self.llc_kind,))
        if self.protocol not in ("moesi", "mesi"):
            raise ValueError("unknown protocol %r" % (self.protocol,))
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        # A fractional scale leaves capacities that hold no whole
        # number of sets; a bool would run at scale 1.
        if isinstance(self.scale, bool) or not isinstance(self.scale, int):
            raise ValueError("scale must be an integer, got %r"
                             % (self.scale,))
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.local_miss_predictor not in (False, True, "ideal",
                                             "missmap"):
            raise ValueError("local_miss_predictor must be False, True/"
                             "'ideal' or 'missmap'")
        if self.directory_cache not in (False, True, "ideal", "sram"):
            raise ValueError("directory_cache must be False, True/"
                             "'ideal' or 'sram'")
        if self.llc_kind == LLC_SHARED and (self.local_miss_predictor
                                            or self.directory_cache):
            raise ValueError("miss predictor / directory cache are SILO "
                             "(private vault) optimizations")
        if self.victim_replication and self.llc_kind != LLC_SHARED:
            raise ValueError("victim replication applies to shared "
                             "NUCA organizations only")

    def scaled(self, size_bytes):
        """Scale a capacity down, flooring at MIN_CACHE_BLOCKS blocks."""
        scaled = size_bytes // self.scale
        return max(MIN_CACHE_BLOCKS * P.BLOCK_BYTES, scaled)
