"""System configuration for the trace-driven simulator.

A :class:`HierarchyConfig` fully describes one evaluated system's
memory hierarchy (Table II).  Capacities are *full-scale*; the system
builder divides them by ``scale`` -- the same divisor the workload
generator applies to footprints -- preserving every capacity ratio of
the real machine.
"""

import math
from dataclasses import dataclass
from typing import Optional

from repro import params as P
from repro.caches.nuca import SharedNUCA
from repro.caches.sram_cache import whole_sets

LLC_SHARED = "shared"
LLC_PRIVATE_VAULT = "private_vault"

#: Smallest cache we allow after scaling, to keep set behaviour sane
#: (64 blocks = 8 sets at 8 ways; below this a scaled L1 degenerates).
MIN_CACHE_BLOCKS = 64

#: (field, least value) of every integer field: counts, sizes and ways
#: are positive, latencies are not negative.  A float would fail inside
#: a job (or build a cache of another shape), and a bool, which equals
#: 1 or 0, would run as that int under a run key of its own.
_INT_FIELDS = (
    ("num_cores", 1), ("scale", 1),
    ("l1_size_bytes", 1), ("l1_ways", 1), ("l1_latency", 0),
    ("l2_size_bytes", 1), ("l2_ways", 1), ("l2_latency", 0),
    ("llc_size_bytes", 1), ("llc_ways", 1), ("llc_latency", 0),
    ("dram_cache_bytes", 1), ("dram_cache_latency", 0),
    ("memory_latency", 0), ("hop_latency", 0),
)

#: Integer fields that may also be None (the level is absent).
_OPTIONAL_FIELDS = frozenset(("l2_size_bytes", "dram_cache_bytes"))

_BOOL_FIELDS = ("memory_queueing", "l1_prefetcher", "victim_replication")

#: Named implementations each SILO optimization accepts besides
#: False/True (see the field comments below).
_OPTIMIZATIONS = {"local_miss_predictor": ("ideal", "missmap"),
                  "directory_cache": ("ideal", "sram")}


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
        if not isinstance(self.name, str):
            raise ValueError("name must be a string, got %r"
                             % (self.name,))
        if self.llc_kind not in (LLC_SHARED, LLC_PRIVATE_VAULT):
            raise ValueError("unknown llc_kind %r" % (self.llc_kind,))
        if self.protocol not in ("moesi", "mesi"):
            raise ValueError("unknown protocol %r" % (self.protocol,))
        for field, least in _INT_FIELDS:
            value = getattr(self, field)
            if value is None and field in _OPTIONAL_FIELDS:
                continue
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < least:
                raise ValueError("%s must be an integer >= %d%s, got %r"
                                 % (field, least,
                                    " or None" if field in
                                    _OPTIONAL_FIELDS else "", value))
        for field in _BOOL_FIELDS:
            if not isinstance(getattr(self, field), bool):
                raise ValueError("%s must be True or False, got %r"
                                 % (field, getattr(self, field)))
        # Matched by type as well as value: 1 == True, yet 1 would run
        # with the optimization off.
        for field, names in _OPTIMIZATIONS.items():
            value = getattr(self, field)
            if not (isinstance(value, bool) or (isinstance(value, str)
                                                and value in names)):
                raise ValueError("%s must be False, True/%r or %r, got %r"
                                 % ((field,) + names + (value,)))
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

    def scaled(self, size_bytes):
        """Scale a capacity down, flooring at MIN_CACHE_BLOCKS blocks."""
        scaled = size_bytes // self.scale
        return max(MIN_CACHE_BLOCKS * P.BLOCK_BYTES, scaled)
