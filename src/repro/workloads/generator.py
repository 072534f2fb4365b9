"""Synthetic trace generation from workload models.

Traces are per-core sequences of 64 B block references with write and
ifetch flags: a list of block numbers, one int object per distinct
block across the whole set, and a ``bytes`` of flag words (see
:class:`CoreTrace`).  Generation is vectorized with numpy and
deterministic given the seed.  Every footprint is divided by the
simulation ``scale`` factor (the same divisor the system builder
applies to cache capacities), so capacity ratios between workloads and
caches match the full-scale machine.
"""

import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.params import MB
from repro.workloads.base import WorkloadSpec

FLAG_WRITE = 1
FLAG_IFETCH = 2

MIN_REGION_BLOCKS = 16

#: Blocks per conventional-DRAM-cache page (4 KB / 64 B).
BLOCKS_PER_PAGE = 64


def _page_spread(idx, base_lo, span):
    """Place block ``idx`` of a page-sparse region pseudo-randomly over
    a span ``BLOCKS_PER_PAGE`` times larger than the logical footprint:
    each block lands in (almost always) its own DRAM page, while the
    set-index distribution of block-granular caches stays uniform.  The
    multiplicative scatter is injective over the span."""
    return base_lo + _scatter(idx, span)

# Cache of Zipf inverse-CDF tables keyed by (n_items, alpha rounded).
_ZIPF_CDF_CACHE: Dict[Tuple[int, float], np.ndarray] = {}

#: ``(key, result)`` of the last :func:`generate_traces` or
#: :func:`repro.workloads.colocation.generate_colocation_traces` call,
#: or None: a one-entry memo shared by both (see :func:`held`).
_last_traces = None


def held(key, generate):
    """``generate()``'s result, memoized in the one-entry trace memo
    under ``key`` (which must name every argument the result depends
    on).  A new key drops the held set before generating, so a process
    holds at most one trace set."""
    global _last_traces
    if _last_traces is not None and _last_traces[0] == key:
        return _last_traces[1]
    _last_traces = None
    result = generate()
    _last_traces = (key, result)
    return result


def _zipf_cdf(n_items, alpha):
    key = (n_items, round(alpha, 4))
    cdf = _ZIPF_CDF_CACHE.get(key)
    if cdf is None:
        ranks = np.arange(1, n_items + 1, dtype=np.float64)
        weights = ranks ** (-alpha)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        _ZIPF_CDF_CACHE[key] = cdf
    return cdf


def zipf_ranks(n_items, alpha, count, rng):
    """Sample ``count`` ranks in [0, n_items) with P(r) ~ (r+1)^-alpha."""
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if alpha <= 0:
        return rng.integers(0, n_items, size=count)
    cdf = _zipf_cdf(n_items, alpha)
    u = rng.random(count)
    return np.searchsorted(cdf, u).astype(np.int64)


def _scatter(indices, n_items):
    """Decorrelate popularity rank from address with a multiplicative
    permutation (hot blocks should not be spatially adjacent)."""
    mult = 2654435761
    while math.gcd(mult, n_items) != 1:
        mult += 2
    return (indices * mult + 12345) % n_items


def region_blocks(size_mb, scale):
    """Scaled footprint in 64 B blocks (floored at a minimum so tiny
    regions stay meaningful under aggressive scaling)."""
    return max(MIN_REGION_BLOCKS, int(size_mb * MB / (scale * 64)))


@dataclass
class TraceLayout:
    """Address-space layout of one workload's regions (block numbers)."""

    code_range: Tuple[int, int]
    region_ranges: Dict[str, Tuple[int, int]]
    rw_shared_range: Tuple[int, int]  # (0, 0) if none
    total_blocks: int

    def region_of(self, block):
        """Name of the region containing a block ('code' for the
        instruction range, None if outside the layout)."""
        lo, hi = self.code_range
        if lo <= block < hi:
            return "code"
        for name, (lo, hi) in self.region_ranges.items():
            if lo <= block < hi:
                return name
        return None


@dataclass
class CoreTrace:
    """One core's reference stream.

    ``blocks[i]`` is event ``i``'s block number and ``flags[i]`` its
    flag word (``FLAG_WRITE`` and/or ``FLAG_IFETCH``, so 0-3): a list
    of ints and a ``bytes`` of the same length.  In a generated set,
    every occurrence of one block number, on any core, is the same int
    object, so a trace costs a list slot and a byte per event plus one
    int per distinct block, and the simulator's block-keyed dicts match
    a key by identity.

    The first ``prewarm_events`` entries are a cache-warming prefix (one
    full pass over each scan region's slice, cf. the paper's
    checkpoint-based warm starts); the driver never measures them.

    Generated traces are shared and read-only: :func:`generate_traces`
    hands the same objects to every call with the same arguments, and
    the run driver reads ``blocks`` and ``flags`` in place.  Copy a
    trace before changing it.
    """

    core_id: int
    blocks: List[int]
    flags: bytes
    instr_per_event: float
    prewarm_events: int = 0

    def __len__(self):
        return len(self.blocks)


def _build_layout(spec, num_cores, scale, base_block=0):
    cursor = base_block
    code_blocks = region_blocks(spec.code.size_mb, scale)
    code_range = (cursor, cursor + code_blocks)
    cursor += code_blocks
    region_ranges = {}
    for r in spec.regions:
        n = region_blocks(r.size_mb, scale)
        if r.sharing == "private":
            span = n * num_cores
        else:
            span = n
        if r.page_sparse:
            span *= BLOCKS_PER_PAGE
        region_ranges[r.name] = (cursor, cursor + span)
        cursor += span
    rw_range = (0, 0)
    if spec.rw_shared_region:
        rw_range = region_ranges[spec.rw_shared_region]
    return TraceLayout(code_range=code_range,
                       region_ranges=region_ranges,
                       rw_shared_range=rw_range,
                       total_blocks=cursor - base_block)


def _code_stream(spec, layout, count, rng):
    """Instruction block stream: Zipf-popular functions expanded into
    sequential runs of ``run_blocks``."""
    code_lo, code_hi = layout.code_range
    n_blocks = code_hi - code_lo
    run = spec.code.run_blocks
    n_funcs = max(1, n_blocks // run)
    n_runs = (count + run - 1) // run
    funcs = zipf_ranks(n_funcs, spec.code.alpha, n_runs, rng)
    funcs = _scatter(funcs, n_funcs)
    starts = funcs * run
    blocks = (starts[:, None] + np.arange(run)[None, :]).reshape(-1)
    return code_lo + (blocks[:count] % n_blocks)


def _region_stream(region, layout, core_id, num_cores, count, rng,
                   scan_state, scale):
    """``count`` block references into one region for one core."""
    lo, hi = layout.region_ranges[region.name]
    n_total = hi - lo
    if region.page_sparse:
        n_total //= BLOCKS_PER_PAGE
    if region.sharing == "private":
        n = n_total // num_cores
        slice_base = core_id * n
    elif region.sharing == "partitioned":
        n = max(1, n_total // num_cores)
        slice_base = core_id * n
        if core_id == num_cores - 1:  # last slice absorbs the remainder
            n = n_total - (num_cores - 1) * n
    else:
        n = n_total
        slice_base = 0
    if region.page_sparse:
        span = (hi - lo)

        def place(idx):
            return _page_spread(slice_base + idx, lo, span)
    else:
        def place(idx):
            return lo + slice_base + idx

    if region.pattern == "scan":
        # The walk is cyclic (every block reused once per pass -- the
        # capacity knee) but in a fixed *scattered* order: secondary
        # working sets are hash tables and indices accessed data-
        # dependently, not page-sequential streams.
        if region.sharing == "shared":
            # Cores walk the whole region from staggered phases.
            start = scan_state.setdefault(
                region.name, (core_id * n) // max(1, num_cores))
        else:
            start = scan_state.setdefault(region.name, 0)
        idx = (start + np.arange(count)) % n
        scan_state[region.name] = (start + count) % n
        return place(_scatter(idx, n))
    if region.pattern == "uniform":
        return place(rng.integers(0, n, size=count))
    # zipf
    ranks = zipf_ranks(n, region.alpha, count, rng)
    return place(_scatter(ranks, n))


def _prewarm_blocks(spec, layout, slot, num_cores):
    """One in-order pass over every scan region's slice for this core:
    prepended to the trace so scanned secondary working sets reach
    steady state regardless of the warmup window length."""
    chunks = []
    for region in spec.regions:
        if region.pattern != "scan":
            continue
        lo, hi = layout.region_ranges[region.name]
        n_total = hi - lo
        if region.page_sparse:
            n_total //= BLOCKS_PER_PAGE
        if region.sharing == "shared":
            start = (slot * n_total) // max(1, num_cores)
            idx = _scatter((start + np.arange(n_total)) % n_total, n_total)
            base = 0
        else:
            n = max(1, n_total // num_cores)
            base = slot * n
            if region.sharing == "partitioned" and slot == num_cores - 1:
                n = n_total - (num_cores - 1) * n
            idx = _scatter(np.arange(n), n)
        if region.page_sparse:
            chunks.append(_page_spread(base + idx, lo, hi - lo))
        else:
            chunks.append(lo + base + idx)
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def generate_traces(spec, num_cores, events_per_core, scale=64, seed=0,
                    base_block=0, core_ids=None, prewarm=True):
    """Generate per-core traces for a workload.

    Parameters
    ----------
    spec:
        The workload model.
    num_cores:
        Number of cores running this workload.
    events_per_core:
        Memory reference events per core (ifetch + data combined).
    scale:
        Footprint/capacity scale divisor (see module docstring).
    seed:
        Base RNG seed; each core derives its own stream.
    base_block:
        Starting block number of this workload's address space (used by
        colocation to keep workloads disjoint).
    core_ids:
        Optional explicit core ids (default ``range(num_cores)``); the
        trace list is returned in this order.
    prewarm:
        Prepend one full pass over each scan region's slice so scanned
        working sets are warm before measurement (see
        :class:`CoreTrace`).

    Returns
    -------
    (traces, layout):
        ``traces`` is a list of :class:`CoreTrace`, ``layout`` the
        shared :class:`TraceLayout`.  Across the set, each distinct
        block number is one int object and each trace's ``flags`` is
        ``bytes`` (see :class:`CoreTrace`).

    The result of the last call is memoized.  A figure's grid runs
    several systems on one workload back to back, so a call with the
    same arguments as the previous one returns the same ``(traces,
    layout)`` objects instead of generating them again (the traces are
    shared and read-only, see :class:`CoreTrace`).  A call with any
    other argument drops the held set before generating its own, so at
    most one set is alive at a time.  The memo is per process: each
    pool worker keeps its own.
    """
    key = (spec, num_cores, events_per_core, scale, seed, base_block,
           None if core_ids is None else tuple(core_ids), prewarm)
    return held(key, lambda: _generate_traces(
        spec, num_cores, events_per_core, scale, seed, base_block,
        core_ids, prewarm))


def _generate_traces(spec, num_cores, events_per_core, scale=64, seed=0,
                     base_block=0, core_ids=None, prewarm=True):
    """:func:`generate_traces` without the memo."""
    if events_per_core <= 0:
        raise ValueError("events_per_core must be positive")
    layout = _build_layout(spec, num_cores, scale, base_block)
    if core_ids is None:
        core_ids = list(range(num_cores))
    p = spec.core
    ifetch_rate = p.ifetch_per_instr
    data_rate = p.data_refs_per_instr
    ifetch_frac = ifetch_rate / (ifetch_rate + data_rate)
    instr_per_event = 1.0 / (ifetch_rate + data_rate)

    fractions = np.array([r.fraction for r in spec.regions])
    cum = np.cumsum(fractions)

    # block number -> the one int object every trace of the set holds
    canonical = {}
    traces = []
    for slot, core_id in enumerate(core_ids):
        name_hash = zlib.crc32(spec.name.encode())  # stable across processes
        rng = np.random.default_rng((seed, name_hash, slot))
        n = events_per_core
        is_ifetch = rng.random(n) < ifetch_frac
        n_if = int(is_ifetch.sum())
        n_d = n - n_if

        blocks = np.empty(n, dtype=np.int64)
        flags = np.zeros(n, dtype=np.uint8)
        flags[is_ifetch] = FLAG_IFETCH
        if n_if:
            blocks[is_ifetch] = _code_stream(spec, layout, n_if, rng)

        if n_d:
            data_pos = np.flatnonzero(~is_ifetch)
            choice = np.searchsorted(cum, rng.random(n_d), side="right")
            choice[choice >= len(spec.regions)] = len(spec.regions) - 1
            scan_state = {}
            for ridx, region in enumerate(spec.regions):
                sel = data_pos[choice == ridx]
                if sel.size == 0:
                    continue
                refs = _region_stream(region, layout, slot, num_cores,
                                      sel.size, rng, scan_state, scale)
                blocks[sel] = refs
                if region.write_fraction > 0:
                    wmask = rng.random(sel.size) < region.write_fraction
                    flags[sel[wmask]] |= FLAG_WRITE

        prewarm_events = 0
        if prewarm:
            prefix = _prewarm_blocks(spec, layout, slot, num_cores)
            if prefix.size:
                prewarm_events = int(prefix.size)
                blocks = np.concatenate([prefix, blocks])
                flags = np.concatenate(
                    [np.zeros(prefix.size, dtype=np.uint8), flags])

        # One int object per distinct block number across the set: the
        # core's distinct numbers are interned, then taken per event.
        distinct, inverse = np.unique(blocks, return_inverse=True)
        distinct = distinct.tolist()
        objects = np.array(list(map(canonical.setdefault, distinct,
                                    distinct)), dtype=object)
        traces.append(CoreTrace(core_id=core_id,
                                blocks=objects[inverse].tolist(),
                                flags=flags.tobytes(),
                                instr_per_event=instr_per_event,
                                prewarm_events=prewarm_events))
    return traces, layout
