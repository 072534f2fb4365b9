"""Workload model data types.

A :class:`WorkloadSpec` describes one application's memory behaviour as
a set of data regions plus an instruction stream and core parameters.
Footprints are given at *full scale* (real machine sizes); the trace
generator divides them by the simulation's scale factor, the same
divisor applied to cache capacities, preserving capacity ratios.
"""

from dataclasses import dataclass, field
from typing import Tuple

from repro.cores.perf_model import CoreParams
from repro.fields import check_fields

PATTERNS = ("zipf", "scan", "uniform")
SHARINGS = ("shared", "private", "partitioned")


@dataclass(frozen=True)
class CodeSpec:
    """Instruction working set: Zipf-popular function entries expanded
    into short sequential runs (code locality)."""

    size_mb: float
    alpha: float = 0.9
    run_blocks: int = 4

    #: A Zipf exponent below 0 would sample like 0 (uniformly).
    LIMITS = {"alpha": (0, None), "run_blocks": (1, None)}

    def __post_init__(self):
        check_fields(self)
        if self.size_mb <= 0:
            raise ValueError("code size must be positive")


@dataclass(frozen=True)
class RegionSpec:
    """One data region.

    Attributes
    ----------
    name:
        Region label (used for ground-truth classification, e.g. the
        RW-shared region of Fig. 3/4).
    size_mb:
        Full-scale footprint.  For ``private`` regions this is the
        per-core footprint; for ``partitioned`` it is the aggregate
        footprint divided evenly among cores.
    pattern:
        'zipf' (popularity-skewed random), 'scan' (cyclic sequential
        walk -- models secondary working sets with a capacity knee), or
        'uniform' (uniform random).
    alpha:
        Zipf exponent (ignored for scan/uniform).
    sharing:
        'shared' (all cores sample the whole region), 'private' (each
        core has its own copy), 'partitioned' (each core touches only
        its slice -- sharded datasets).
    fraction:
        Fraction of the workload's data references that target this
        region.  Fractions across regions must sum to 1.
    write_fraction:
        Fraction of this region's references that are writes.
    page_sparse:
        If True, the region's blocks are spread one-per-DRAM-page (at a
        hashed offset within the page).  Models index/hash-table
        working sets whose hot entries are scattered over a structure
        far larger than the hot footprint -- dense to block-granular
        caches, hostile to the page-granular conventional DRAM cache.
    """

    name: str
    size_mb: float
    pattern: str
    sharing: str
    fraction: float
    alpha: float = 0.0
    write_fraction: float = 0.0
    page_sparse: bool = False

    LIMITS = {"pattern": PATTERNS, "sharing": SHARINGS,
              "fraction": (0, 1), "alpha": (0, None),
              "write_fraction": (0, 1)}

    def __post_init__(self):
        check_fields(self)
        if self.size_mb <= 0:
            raise ValueError("region size must be positive")


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete workload model."""

    name: str
    code: CodeSpec
    regions: Tuple[RegionSpec, ...]
    core: CoreParams = field(default_factory=CoreParams)
    rw_shared_region: str = ""  # name of the RW-shared region, if any

    def __post_init__(self):
        check_fields(self)
        total = sum(r.fraction for r in self.regions)
        if abs(total - 1.0) > 1e-6:
            raise ValueError("region fractions for %s sum to %.4f, not 1"
                             % (self.name, total))
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ValueError("duplicate region names in %s" % self.name)
        if self.rw_shared_region and self.rw_shared_region not in names:
            raise ValueError("rw_shared_region %r is not a region of %s"
                             % (self.rw_shared_region, self.name))

    def region(self, name):
        for r in self.regions:
            if r.name == name:
                return r
        raise KeyError(name)

    def overall_write_fraction(self):
        """Expected write fraction across all data references."""
        return sum(r.fraction * r.write_fraction for r in self.regions)
