"""Analytic run estimator: a RunRequest resolved without simulation.

The trace-driven simulator resolves one fig10-style grid point in
seconds; a design-space *query* wants microseconds.  This module maps
each workload's generator model (repro.workloads.generator) onto IRM
reference classes and pushes them through closed-form cache models:

* LRU levels (L1-I/L1-D, set-associative shared NUCA) use Che's
  approximation -- solve ``sum(1 - exp(-p_i * T)) = C`` for the
  characteristic time ``T``, then ``hit_i = 1 - exp(-p_i * T)`` --
  extended with deterministic-cycle classes for scan regions
  (``hit = 1`` iff the reuse gap fits inside ``T``) and clamped to the
  run's finite warmup horizon so short sampling plans see the same
  cold-start the simulator does.
* Direct-mapped levels (SILO vaults, 1-way NUCA, the page-granular
  conventional DRAM cache) use the mean-field residency model
  ``hit_i = p_i / (p_i + (P - p_i) / S)``: a block owns its set when
  it was the set's most recent reference.
* Miss streams filter level to level exactly like the hierarchy does
  (rate ``p_i * (1 - hit_i)`` feeds the next level); remote-vault
  supply probability for shared data under SILO comes from peer-vault
  residency.
* Expected exposed latencies per service level are computed from the
  same mesh hop tables, queueing model and Table II constants the
  simulator uses (repro.sim.system access paths), with an M/D/1
  memory-controller fixpoint: IPC determines the arrival rate, which
  determines queueing delay, which feeds back into IPC.

The result is an :class:`EstimateSummary` -- a RunSummary subclass
carrying ``mode="estimate"`` plus the recorded error bound of the
differential validation envelope (tools/estimator-envelope.json,
written and asserted by tests/test_estimator_differential.py).  The
envelope also defines the trust region that gates the engine's
``auto`` mode: points outside it, or within the recorded error bound
of a shared-vs-SILO decision boundary, fall back to simulation.
"""

import functools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import params as P
from repro.cores.perf_model import (
    LEVEL_L1, LEVEL_LLC_LOCAL, LEVEL_LLC_REMOTE, LEVEL_DRAM_CACHE,
    LEVEL_MEMORY, NUM_LEVELS)
from repro.energy.model import energy_breakdown
from repro.fields import plain
from repro.noc.mesh import Mesh2D
from repro.sim.config import LLC_SHARED, LLC_PRIVATE_VAULT
from repro.sim.summary import ENGINE_SCHEMA, CoreSummary, RunSummary
from repro.workloads.generator import BLOCKS_PER_PAGE, region_blocks

#: Documented worst-case error bound per observable (the contract the
#: differential envelope sweep asserts; see DESIGN.md).  Fractions are
#: absolute errors on [0, 1] quantities; performance and energy are
#: relative errors.
DOCUMENTED_BOUNDS = {
    "l1_hit_rate": 0.04,
    "llc_local_fraction": 0.10,
    "llc_remote_fraction": 0.10,
    "dram_cache_fraction": 0.10,
    "memory_fraction": 0.10,
    "performance": 0.15,
    "performance_ratio": 0.12,
    "energy_total_dynamic": 0.35,
}

#: Largest reference class kept as an explicit per-item rate vector;
#: bigger Zipf footprints are approximated by geometric rank bands.
VEC_LIMIT = 1 << 17


# ---------------------------------------------------------------------------
# reference classes
# ---------------------------------------------------------------------------


@dataclass
class RefClass:
    """A group of items with identical statistical behaviour.

    ``kind`` is one of:

    * ``"vec"`` -- explicit per-item rates in ``rates`` (Zipf classes);
    * ``"uniform"`` -- ``n`` items, each referenced at IRM rate
      ``rate``;
    * ``"cycle"`` -- ``n`` items on a deterministic cycle, each
      referenced exactly once every ``1 / rate`` stream events (scan
      regions: the generator walks them in a fixed scattered order).

    ``copies`` says how many disjoint replicas of the class exist in
    the stream (private/partitioned regions contribute one identical
    slice per core to an aggregate stream); rates are per item of one
    replica, occupancy and throughput scale by ``copies``.
    """

    kind: str
    n: int
    rate: float = 0.0
    rates: Optional[np.ndarray] = None
    copies: int = 1
    region: str = ""
    write_fraction: float = 0.0
    sharing: str = "private"
    page_sparse: bool = False
    is_code: bool = False
    rw: bool = False

    def total_rate(self):
        if self.kind == "vec":
            return float(self.rates.sum()) * self.copies
        return self.n * self.rate * self.copies

    def scaled(self, factor=1.0, copies=None):
        """A metadata-preserving copy with rates scaled by ``factor``
        (scalar or per-item array) and optionally new ``copies``."""
        return RefClass(
            self.kind, n=self.n,
            rate=(0.0 if self.kind == "vec"
                  else self.rate * float(factor)),
            rates=(self.rates * factor if self.kind == "vec" else None),
            copies=self.copies if copies is None else copies,
            region=self.region, write_fraction=self.write_fraction,
            sharing=self.sharing, page_sparse=self.page_sparse,
            is_code=self.is_code, rw=self.rw)


def zipf_rank_weights(n_items, alpha):
    """Normalized Zipf popularity over ranks (alpha <= 0 is uniform,
    matching repro.workloads.generator.zipf_ranks)."""
    if alpha <= 0:
        return np.full(n_items, 1.0 / n_items)
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    w = ranks ** (-alpha)
    return w / w.sum()


def _zipf_classes(n, alpha, total_rate, **meta):
    """Zipf reference classes; huge footprints are banded (each
    geometric rank band becomes one uniform sub-class) to keep the
    estimator O(thousands) regardless of scale."""
    if n <= VEC_LIMIT:
        rates = zipf_rank_weights(n, alpha) * total_rate
        return [RefClass("vec", n=n, rates=rates, **meta)]
    if alpha <= 0:
        return [RefClass("uniform", n=n, rate=total_rate / n, **meta)]
    # Geometric bands over ranks; Zipf mass inside a band is nearly
    # flat, so a uniform per-item rate per band is a tight fit.
    denom = float(np.sum(np.arange(1, n + 1, dtype=np.float64)
                         ** (-alpha)))
    out = []
    lo = 0
    while lo < n:
        hi = min(n, max(lo * 2, 64))
        ranks = np.arange(lo + 1, hi + 1, dtype=np.float64)
        band_mass = float(np.sum(ranks ** (-alpha))) / denom
        size = hi - lo
        out.append(RefClass("uniform", n=size,
                            rate=total_rate * band_mass / size, **meta))
        lo = hi
    return out


def _region_probabilities(spec):
    """Per-region data-reference probability, mirroring the
    generator's ``searchsorted`` draw: raw fractions are CDF
    cut-points and the *last* region absorbs any residual mass (or
    loses mass if the fractions overshoot 1)."""
    cum = np.cumsum([r.fraction for r in spec.regions])
    cum = np.minimum(cum, 1.0)
    probs = np.diff(np.concatenate(([0.0], cum)))
    probs[-1] += max(0.0, 1.0 - cum[-1])
    return probs


def build_core_classes(spec, num_cores, scale):
    """One core's reference classes, mirroring the trace generator.

    Returns ``(ifetch_classes, data_classes)`` with absolute per-event
    rates (an event is one reference, ifetch or data) so the two lists
    share one time base.
    """
    p = spec.core
    if_rate = p.ifetch_per_instr
    d_rate = p.data_refs_per_instr
    ifetch_frac = if_rate / (if_rate + d_rate)
    data_frac = 1.0 - ifetch_frac

    # Code: Zipf-popular functions expanded into runs of run_blocks
    # sequential blocks -- per-block rate is the function's weight
    # spread over its run.
    n_code = region_blocks(spec.code.size_mb, scale)
    run = spec.code.run_blocks
    n_funcs = max(1, n_code // run)
    w_funcs = zipf_rank_weights(n_funcs, spec.code.alpha)
    code_rates = np.repeat(w_funcs / run, run) * ifetch_frac
    ifetch_classes = [RefClass("vec", n=n_funcs * run, rates=code_rates,
                               region="code", sharing="shared",
                               is_code=True)]

    data_classes = []
    probs = _region_probabilities(spec)
    for r, prob in zip(spec.regions, probs):
        n_total = region_blocks(r.size_mb, scale)
        if r.sharing == "private":
            n = n_total               # size_mb is the per-core slice
        elif r.sharing == "partitioned":
            n = max(1, n_total // num_cores)
        else:
            n = n_total
        frac = data_frac * float(prob)
        if frac <= 0 or n <= 0:
            continue
        meta = dict(region=r.name, write_fraction=r.write_fraction,
                    sharing=r.sharing, page_sparse=r.page_sparse,
                    rw=(r.name == spec.rw_shared_region))
        if r.pattern == "scan":
            data_classes.append(RefClass("cycle", n=n, rate=frac / n,
                                         **meta))
        elif r.pattern == "uniform":
            data_classes.append(RefClass("uniform", n=n, rate=frac / n,
                                         **meta))
        else:  # zipf
            data_classes.extend(_zipf_classes(n, r.alpha, frac, **meta))
    return ifetch_classes, data_classes


# ---------------------------------------------------------------------------
# cache models
# ---------------------------------------------------------------------------


def _cycle_gap(c, horizon):
    """Effective reuse gap of a cycle (scan) item.  The steady-state
    gap is one full period, but scan regions are prewarmed and a run
    shorter than one period re-touches every block at a distance of at
    most the warm-up horizon."""
    if c.rate <= 0:
        return float(horizon)
    return min(1.0 / c.rate, float(horizon))


def _occupancy(classes, t):
    occ = 0.0
    for c in classes:
        if c.kind == "vec":
            # == sum(-expm1(-rates * t)): negating a product or a sum
            # rounds symmetrically, so the sign moves out bit for bit
            occ += float(-np.add.reduce(np.expm1(c.rates * -t))) \
                * c.copies
        elif c.kind == "cycle":
            # a scan touches distinct blocks at the stream rate, so it
            # holds rate*t of the cache in any window of length t
            occ += c.n * min(1.0, c.rate * t) * c.copies
        else:
            occ += c.n * -math.expm1(-c.rate * t) * c.copies
    return occ


def solve_characteristic_time(classes, capacity, horizon):
    """Che characteristic time of an LRU cache of ``capacity`` blocks,
    clamped to the run's warm-up ``horizon`` (stream events): a block
    cannot have survived longer than the run has existed, which is
    what makes short sampling plans comparable to the simulator."""
    if capacity <= 0:
        return 0.0
    if _occupancy(classes, horizon) <= capacity:
        return float(horizon)
    lo, hi = 0.0, 1.0
    while _occupancy(classes, hi) < capacity:
        hi *= 2.0
        if hi > 1e18:
            return min(hi, float(horizon))
    # ``occupancy(lo) < capacity`` holds at every step and
    # ``occupancy(hi) < capacity`` never does, so once ``mid`` rounds
    # onto ``lo`` or ``hi`` a step moves neither end, nor does any
    # later one: stopping there returns the same bits.
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if _occupancy(classes, mid) < capacity:
            lo = mid
        else:
            hi = mid
    return min((lo + hi) / 2.0, float(horizon))


#: Characteristic times already solved, keyed by everything that
#: determines one (see :func:`characteristic_time`).  Floats only, and
#: at most :data:`CHE_MEMO_LIMIT` of them (oldest dropped first).
_CHE_MEMO = {}
CHE_MEMO_LIMIT = 4096


def characteristic_time(classes, capacity, horizon, key=None):
    """:func:`solve_characteristic_time`, memoized under ``(key,
    capacity, horizon)`` when ``key`` names every input ``classes``
    was built from (without one, every call solves)."""
    if key is None:
        return solve_characteristic_time(classes, capacity, horizon)
    key = (key, capacity, horizon)
    t = _CHE_MEMO.get(key)
    if t is None:
        t = solve_characteristic_time(classes, capacity, horizon)
        if len(_CHE_MEMO) >= CHE_MEMO_LIMIT:
            del _CHE_MEMO[next(iter(_CHE_MEMO))]
        _CHE_MEMO[key] = t
    return t


def clear_memo():
    """Forget every memoized characteristic time and latency path."""
    _CHE_MEMO.clear()
    _latency_paths.cache_clear()


def che_hits(classes, capacity, horizon, ways=None, key=None):
    """Per-class hit rates of an LRU level (arrays for vec classes,
    scalars otherwise), via Che's approximation.  With ``ways`` given,
    cycle (scan) classes use a per-set overflow model instead of the
    sharp characteristic-time threshold: a scan block survives its
    deterministic reuse gap iff fewer than ``ways`` distinct other
    blocks land in its set meanwhile, which Poisson-splitting the
    distinct-block count over the sets captures well.  ``key`` is
    :func:`characteristic_time`'s."""
    t = characteristic_time(classes, capacity, horizon, key)
    hits = []
    for c in classes:
        if c.kind == "vec":
            hits.append(-np.expm1(-c.rates * t))
        elif c.kind == "cycle":
            gap = _cycle_gap(c, horizon)
            if ways and ways > 0:
                sets = max(1, capacity // ways)
                # The prewarm pass walks the scan in run order, so
                # between two touches of a block the whole cycle
                # (w - 1 distinct blocks) intervenes exactly once --
                # even when the run is shorter than one period -- plus
                # whatever other traffic fits in the gap.  Poisson-
                # split that count over the sets against the LRU depth.
                w = c.n * max(1, c.copies)
                ext = _occupancy([o for o in classes if o is not c],
                                 gap)
                mu = (max(0.0, w - 1.0) + ext) / sets
                term, cdf = math.exp(-mu), 0.0
                for k in range(ways):
                    cdf += term
                    term *= mu / (k + 1)
                hits.append(min(1.0, cdf))
            else:
                # deterministic cycle: survives iff the gap fits in T
                hits.append(1.0 if t >= gap - 1e-9 else 0.0)
        else:
            hits.append(-math.expm1(-c.rate * t))
    return hits


def direct_mapped_hits(classes, num_sets, horizon):
    """Per-class hit rates of a direct-mapped level (SILO vault,
    1-way NUCA, page-granular DRAM cache) under the mean-field
    conflict model: with scattered placement a set's other occupants
    arrive at rate ``(P - p_i) / S``, and an IRM item is resident
    exactly when it was the set's most recent reference."""
    if num_sets <= 0:
        return [np.zeros(c.n) if c.kind == "vec" else 0.0
                for c in classes]
    p_tot = sum(c.total_rate() for c in classes)
    hits = []
    for c in classes:
        if c.kind == "vec":
            q = np.maximum(p_tot - c.rates, 0.0) / num_sets
            denom = np.maximum(c.rates + q, 1e-300)
            # finite horizon: the set must have been touched at all
            hits.append((c.rates / denom) * -np.expm1(-denom * horizon))
        elif c.kind == "cycle":
            # Deterministic cyclic reuse: between two touches of a
            # scan block every other block of the cycle intervenes
            # exactly once (the prewarm pass shares the scan's order),
            # so only blocks whose set holds no sibling survive.  The
            # generator's multiplicative scatter is injective on sets
            # for any window of at most S blocks, so a W-block cycle
            # self-conflicts not at all when W <= S, and exactly the
            # 2(W - S) blocks in doubled sets die when S < W < 2S.
            w = c.n * max(1, c.copies)
            self_surv = min(1.0, max(0.0, (2.0 * num_sets - w) / w))
            q_ext = max(p_tot - c.total_rate(), 0.0) / num_sets
            hits.append(self_surv
                        * math.exp(-q_ext * _cycle_gap(c, horizon)))
        else:
            q = max(p_tot - c.rate, 0.0) / num_sets
            denom = c.rate + q
            if denom <= 0:
                hits.append(0.0)
            else:
                hits.append((c.rate / denom)
                            * -math.expm1(-denom * horizon))
    return hits


def filter_classes(classes, hits):
    """The miss stream: per-item rates thinned by ``1 - hit``.  The
    returned list stays index-parallel to ``classes`` (zero-rate
    classes are kept) so per-class results can be joined across
    levels."""
    out = []
    for c, h in zip(classes, hits):
        if c.kind == "vec":
            out.append(c.scaled(1.0 - np.asarray(h)))
        else:
            out.append(c.scaled(1.0 - float(h)))
    return out


def _page_classes(classes):
    """Block classes folded to DRAM-cache page granularity.  Page-
    sparse regions put every block in its own page; dense regions pack
    BLOCKS_PER_PAGE blocks per page, and the generator's scatter
    decorrelates popularity from the page index, so a dense class
    flattens to a uniform page class of the same total rate."""
    out = []
    for c in classes:
        if c.page_sparse:
            out.append(c)
            continue
        n_pages = max(1, -(-c.n // BLOCKS_PER_PAGE))
        total = c.total_rate() / max(1, c.copies)
        kind = "cycle" if c.kind == "cycle" else "uniform"
        out.append(RefClass(kind, n=n_pages, rate=total / n_pages,
                            copies=c.copies, region=c.region,
                            write_fraction=c.write_fraction,
                            sharing=c.sharing, page_sparse=False,
                            is_code=c.is_code, rw=c.rw))
    return out


def _class_hit_fraction(c, h):
    """Rate-weighted mean hit rate of one class."""
    if c.kind == "vec":
        tot = float(c.rates.sum())
        if tot <= 0:
            return 0.0
        return float(np.sum(c.rates * h)) / tot
    return float(h)


def _remote_probability(c, h, peers):
    """SILO: probability a vault miss on a shared item is supplied by
    a peer vault instead of memory.  Peer residency equals the peer's
    own hit rate (symmetric cores); writes invalidate peer copies, so
    the write fraction discounts residency."""
    if peers <= 0 or c.sharing != "shared":
        return np.zeros(c.n) if c.kind == "vec" else 0.0
    if c.kind == "vec":
        o = np.clip(h * (1.0 - c.write_fraction), 0.0, 1.0)
        return 1.0 - (1.0 - o) ** peers
    o = min(max(float(h) * (1.0 - c.write_fraction), 0.0), 1.0)
    return 1.0 - (1.0 - o) ** peers


# ---------------------------------------------------------------------------
# capability / envelope / trust region
# ---------------------------------------------------------------------------


def envelope_path():
    """Location of the recorded validation envelope, the checked-in
    ``tools/estimator-envelope.json`` (the differential harness
    rewrites it in place when regenerating)."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    return os.path.join(root, "tools", "estimator-envelope.json")


_envelope_cache = {}


def load_envelope(path=None):
    """The checked-in error envelope, or None when absent/unreadable
    (auto mode then trusts nothing and simulates everything)."""
    path = path or envelope_path()
    try:
        mtime = os.path.getmtime(path)
    except OSError:
        return None
    key = (path, mtime)
    if key in _envelope_cache:
        return _envelope_cache[key]
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError):
        return None
    _envelope_cache.clear()
    _envelope_cache[key] = data
    return data


def error_bounds(envelope=None):
    """Per-observable error bound: the envelope's recorded worst-case
    when available (floored at a quarter of the documented contract so
    a lucky sweep cannot erase all margin, and never looser than the
    documented bound), else the documented bounds themselves."""
    bounds = dict(DOCUMENTED_BOUNDS)
    if envelope is None:
        envelope = load_envelope()
    if envelope:
        recorded = {}
        for tier in envelope.get("tiers", {}).values():
            for obs, worst in tier.get("worst", {}).items():
                recorded[obs] = max(recorded.get(obs, 0.0), worst)
        for obs, worst in recorded.items():
            if obs in bounds:
                bounds[obs] = min(bounds[obs],
                                  max(worst, bounds[obs] / 4.0))
    return bounds


def can_estimate(request):
    """Structural capability: the analytic model covers this request.
    Colocation, fault plans, sharing classification, 3-level
    hierarchies, prefetchers, victim replication and the realistic
    (imperfect) miss-predictor/directory-cache implementations fall
    back to simulation."""
    config = request.config
    return (not request.colocated
            and len(request.placements) == 1
            and not request.track_sharing
            and (request.faults is None or not request.faults.active())
            and not config.l2_size_bytes
            and not config.victim_replication
            and not config.l1_prefetcher
            and config.local_miss_predictor in (False, True, "ideal")
            and config.directory_cache in (False, True, "ideal")
            and config.llc_kind in (LLC_SHARED, LLC_PRIVATE_VAULT))


def in_trust_region(request, envelope=None):
    """Envelope trust region for auto mode: only points inside the
    differentially validated sweep ranges may skip simulation."""
    if envelope is None:
        envelope = load_envelope()
    if not envelope:
        return False
    if not can_estimate(request):
        return False
    trust = envelope.get("trust", {})
    config = request.config
    if not (trust.get("scale_min", 1) <= config.scale
            <= trust.get("scale_max", 1)):
        return False
    if config.num_cores not in trust.get("num_cores", []):
        return False
    if config.llc_kind not in trust.get("llc_kinds", []):
        return False
    if request.plan.measure_events < trust.get("min_measure_events", 0):
        return False
    return True


def triage(requests):
    """Auto-mode decisions, one per request: ``"estimate"``,
    ``"fallback"`` (incapable or out of the trust region) or
    ``"boundary"`` (the point sits within the recorded error bound of
    a shared-vs-SILO decision boundary, so both sides simulate).

    Boundary analysis groups requests that differ only in their system
    configuration and compares estimated performance across LLC
    organizations: if the ratio's uncertainty interval -- widened by
    the envelope's recorded ``performance_ratio`` bound times the
    configured margin -- contains 1.0, the estimate cannot be trusted
    to rank the pair and both points simulate.
    """
    envelope = load_envelope()
    decisions = []
    perf = {}
    for i, req in enumerate(requests):
        if req.mode == "estimate":
            decisions.append("estimate")
            continue
        if not in_trust_region(req, envelope):
            decisions.append("fallback")
            continue
        decisions.append("estimate")
        perf[i] = estimate_request(req).performance()

    if not perf:
        return decisions
    margin_factor = envelope.get("trust", {}).get("ratio_margin", 1.0)
    margin = margin_factor * error_bounds(envelope)["performance_ratio"]
    log_margin = math.log1p(margin)

    groups = {}
    for i in perf:
        c = requests[i].canonical()
        c.pop("config")
        c.pop("mode")
        groups.setdefault(json.dumps(c, sort_keys=True), []).append(i)
    for idxs in groups.values():
        for a in range(len(idxs)):
            for b in range(a + 1, len(idxs)):
                i, j = idxs[a], idxs[b]
                if (requests[i].config.llc_kind
                        == requests[j].config.llc_kind):
                    continue
                pi, pj = perf[i], perf[j]
                if pi <= 0 or pj <= 0:
                    continue
                if abs(math.log(pi / pj)) <= log_margin:
                    decisions[i] = "boundary"
                    decisions[j] = "boundary"
    return decisions


# ---------------------------------------------------------------------------
# the estimate
# ---------------------------------------------------------------------------


@dataclass
class EstimateSummary(RunSummary):
    """RunSummary produced analytically: same evaluation API, plus the
    recorded error bound it was produced under."""

    mode: str = "estimate"
    #: Per-observable error bound in force when the estimate was made
    #: (the envelope's recorded worst-case errors).
    error_bound: dict = field(default_factory=dict)
    #: True when the request fell inside the envelope trust region.
    in_trust_region: bool = True

    def manifest(self):
        data = super().manifest()
        data["estimate"] = {
            "error_bound": dict(self.error_bound),
            "in_trust_region": self.in_trust_region,
        }
        return data


def _empty_hist():
    return {"max_bucket": 24, "buckets": [0] * 25, "count": 0,
            "total": 0.0, "min": None, "max": None}


def _add_point_mass(state, count, latency):
    """Merge ``count`` samples at the expected ``latency`` into a
    histogram state, as Distribution.merge would merge a degenerate
    distribution of them (percentile queries stay meaningful)."""
    n = int(round(count))
    if n <= 0 or latency <= 0:
        return
    latency = float(latency)
    state["buckets"][min(int(latency).bit_length(), 24)] += n
    state["count"] += n
    state["total"] += latency * n
    if state["min"] is None or latency < state["min"]:
        state["min"] = latency
    if state["max"] is None or latency > state["max"]:
        state["max"] = latency


class _LatencyPaths:
    """Expected exposed latency per service level, per core, computed
    from the same mesh hop tables and Table II constants the simulator
    charges (repro.sim.system access paths)."""

    def __init__(self, config):
        n = config.num_cores
        mesh = Mesh2D(n, hop_latency=config.hop_latency)
        hops = mesh._hops
        hop_lat = config.hop_latency
        inj = Mesh2D.INJECTION_OVERHEAD
        # Mean hops from a core to a uniformly distributed tile
        # (interleaved LLC bank / SILO home node), src == dst included.
        mean_to_any = [sum(row) / n for row in hops]
        self.avg_pair_hops = mesh.average_hops()
        nearest = mesh._nearest

        self.llc_access = [0.0] * n    # shared: mesh RT + bank access
        self.shared_miss_noc = [0.0] * n
        self.silo_home_leg = [0.0] * n
        self.silo_mem_legs = [0.0] * n
        for c in range(n):
            self.llc_access[c] = (inj + 2.0 * hop_lat * mean_to_any[c]
                                  + config.llc_latency)
            self.shared_miss_noc[c] = 2.0 * hop_lat * hops[c][nearest[c]]
            self.silo_home_leg[c] = hop_lat * mean_to_any[c]
            # home -> its memory port -> core, over the uniform home
            self.silo_mem_legs[c] = hop_lat * sum(
                hops[h][nearest[h]] + hops[nearest[h]][c]
                for h in range(n)) / n

        self.probe_lat = 0
        self.dir_lat = 0
        if config.llc_kind == LLC_PRIVATE_VAULT:
            if config.local_miss_predictor not in (True, "ideal"):
                self.probe_lat = config.llc_latency
            if config.directory_cache not in (True, "ideal"):
                self.dir_lat = max(
                    1, config.llc_latency - P.SILO_SERIALIZATION_LATENCY)
            self.remote_supply = (2.0 * hop_lat * self.avg_pair_hops
                                  + config.llc_latency)


@functools.lru_cache(maxsize=64)
def _latency_paths(config):
    """One :class:`_LatencyPaths` per config."""
    return _LatencyPaths(config)


def _level_latencies(paths, config, silo, queue_mem, queue_dram):
    """Per-core expected exposed latency per service level."""
    n = config.num_cores
    out = []
    for c in range(n):
        lat = [0.0] * NUM_LEVELS
        if silo:
            miss_base = (paths.probe_lat + paths.silo_home_leg[c]
                         + paths.dir_lat)
            lat[LEVEL_LLC_LOCAL] = config.llc_latency
            lat[LEVEL_LLC_REMOTE] = miss_base + paths.remote_supply
            lat[LEVEL_MEMORY] = (miss_base + paths.silo_mem_legs[c]
                                 + config.memory_latency + queue_mem)
        else:
            access = paths.llc_access[c]
            off = paths.shared_miss_noc[c]
            lat[LEVEL_LLC_LOCAL] = access
            # dirty peer-L1 forward: bank round trip, then bank ->
            # owner -> requester over the mesh plus the owner's L1
            lat[LEVEL_LLC_REMOTE] = (access + 2.0 * config.hop_latency
                                     * paths.avg_pair_hops
                                     + config.l1_latency)
            lat[LEVEL_DRAM_CACHE] = (access + off
                                     + config.dram_cache_latency
                                     + queue_dram)
            lat[LEVEL_MEMORY] = (access + off + config.memory_latency
                                 + queue_mem)
        out.append(lat)
    return out


def estimate_request(request):
    """Resolve a RunRequest analytically; returns an
    :class:`EstimateSummary`.  Raises ValueError for requests outside
    the model (check :func:`can_estimate` first)."""
    if not can_estimate(request):
        raise ValueError("request is not estimator-capable: %s"
                         % request.config.name)
    config = request.config
    plan = request.plan
    ((spec, core_ids),) = request.placements
    core_ids = list(core_ids)
    n_driven = len(core_ids)
    measure = plan.measure_events
    # Mean lookback from a measurement-window reference to the start
    # of cache warming, in stream events (prewarm passes only touch
    # scan regions, which carry their own deterministic-gap model).
    horizon = max(1.0, plan.warmup_events + 0.5 * measure)

    ifetch_cls, data_cls = build_core_classes(spec, n_driven,
                                              config.scale)
    # What the classes are built from keys their Che solves, so every
    # system of a grid shares one L1 solve per workload.
    classes_key = (spec, n_driven, config.scale)
    l1_blocks = config.scaled(config.l1_size_bytes) // P.BLOCK_BYTES
    h1i = che_hits(ifetch_cls, l1_blocks, horizon, config.l1_ways,
                   key=("ifetch",) + classes_key)
    h1d = che_hits(data_cls, l1_blocks, horizon, config.l1_ways,
                   key=("data",) + classes_key)

    # Coherence: peer writes invalidate write-shared lines (MESI in
    # the shared org, vault sweeps under SILO).  A reader's copy is
    # valid iff its own access preceded every peer write, so a
    # capacity hit survives with probability g = 1/(1+(n-1)*wf); the
    # rest are coherence misses, mostly supplied by the writer.
    coh_d = []
    for c, h in zip(data_cls, h1d):
        if (c.sharing == "shared" and c.write_fraction > 0
                and n_driven > 1):
            g = 1.0 / (1.0 + (n_driven - 1) * c.write_fraction)
            coh_d.append((np.asarray(h) if c.kind == "vec"
                          else float(h)) * (1.0 - g))
        else:
            coh_d.append(np.zeros(c.n) if c.kind == "vec" else 0.0)
    h1d_eff = [h - cm for h, cm in zip(h1d, coh_d)]

    # Flat per-core class order; every later list is index-parallel.
    zero_i = [np.zeros(c.n) if c.kind == "vec" else 0.0
              for c in ifetch_cls]
    l1_stage = ([(c, h, cm, "ifetch")
                 for c, h, cm in zip(ifetch_cls, h1i, zero_i)]
                + [(c, h, cm, "data")
                   for c, h, cm in zip(data_cls, h1d_eff, coh_d)])
    llc_feed = (filter_classes(ifetch_cls, h1i)
                + filter_classes(data_cls, h1d_eff))

    paths = _latency_paths(config)
    silo = config.llc_kind == LLC_PRIVATE_VAULT
    queue_mem = 0.0
    queue_dram = 0.0
    dram_pages = 0
    if config.dram_cache_bytes and not silo:
        dram_pages = (config.scaled(config.dram_cache_bytes)
                      // P.TRAD_DRAM_CACHE_PAGE_BYTES)

    h_dram = [0.0] * len(llc_feed)
    occupancy = 0.0
    if silo:
        vault_sets = config.scaled(config.llc_size_bytes) // P.BLOCK_BYTES
        h_llc = direct_mapped_hits(llc_feed, vault_sets, horizon)
        p_rem = [_remote_probability(c, h, n_driven - 1)
                 for c, h in zip(llc_feed, h_llc)]
        occupancy = min(1.0, _occupancy(llc_feed, horizon)
                        / max(1, vault_sets))
    else:
        # Aggregate stream over driven cores: shared classes collapse
        # (their per-core rates add), private/partitioned slices are
        # disjoint copies.  One global step = one event per core, so
        # the warm-up horizon keeps the same numeric value.
        agg = [c.scaled(n_driven) if c.sharing == "shared"
               else c.scaled(1.0, copies=n_driven)
               for c in llc_feed]
        llc_blocks = config.scaled(config.llc_size_bytes) // P.BLOCK_BYTES
        if config.llc_ways <= 1:
            h_llc = direct_mapped_hits(agg, llc_blocks, horizon)
        else:
            # the L1 geometry and the horizon shape the miss stream
            h_llc = che_hits(agg, llc_blocks, horizon, config.llc_ways,
                             key=("llc",) + classes_key
                             + (l1_blocks, config.l1_ways))
        p_rem = [np.zeros(c.n) if c.kind == "vec" else 0.0
                 for c in llc_feed]
        if dram_pages:
            miss_pages = _page_classes(filter_classes(agg, h_llc))
            h_pages = direct_mapped_hits(miss_pages, dram_pages,
                                         horizon)
            h_dram = [_class_hit_fraction(pc, hp)
                      for pc, hp in zip(miss_pages, h_pages)]

    # -- expected counts per core and level (rates are per core event,
    #    hit rates identical across symmetric driven cores) -----------
    per_class = []
    for (c, h1, cm, kind), h2, pr, hd in zip(l1_stage, h_llc, p_rem,
                                             h_dram):
        tot = c.total_rate()
        l1 = _class_hit_fraction(c, h1) * tot
        wf = c.write_fraction
        coherent = (c.sharing == "shared" and wf > 0 and n_driven > 1)
        g = 1.0 / (1.0 + (n_driven - 1) * wf) if coherent else 1.0
        if c.kind == "vec":
            r = c.rates
            m = r * (1.0 - np.asarray(h1))
            r_coh = r * np.asarray(cm)
            if silo:
                # peer writes sweep the reader's vault too, so only a
                # fraction g of capacity vault hits stay local; the
                # invalidated slices are supplied by the writer's own
                # vault (residency ~ its symmetric vault hit rate)
                own = np.clip(np.asarray(h2), 0.0, 1.0)
                norm = m - r_coh
                vhit = norm * np.asarray(h2)
                local = float(np.sum(vhit)) * g
                fwd = (r_coh + vhit * (1.0 - g)) * own
                after = norm * (1.0 - np.asarray(h2))
                remote = float(np.sum(after * pr)) + float(np.sum(fwd))
                dramhit = 0.0
            else:
                # sticky-owner forward: each write marks its block and
                # the next L1-missing access to it is supplied from the
                # writer's L1, so forwards track min(miss, write) rate
                fwd = np.minimum(m, r * wf) if coherent \
                    else np.zeros_like(m)
                norm = m - fwd
                local = float(np.sum(norm * h2))
                after = norm * (1.0 - np.asarray(h2))
                remote = float(np.sum(fwd))
                dramhit = (float(np.sum(after)) * float(hd))
        else:
            m = tot - l1
            r_coh = tot * float(cm)
            if silo:
                own = min(1.0, max(0.0, float(h2)))
                norm = m - r_coh
                vhit = norm * float(h2)
                local = vhit * g
                fwd = (r_coh + vhit * (1.0 - g)) * own
                after = norm - vhit
                remote = after * float(pr) + fwd
                dramhit = 0.0
            else:
                fwd = min(m, tot * wf) if coherent else 0.0
                norm = m - fwd
                local = norm * float(h2)
                after = norm - local
                remote = fwd
                dramhit = after * float(hd)
        memory = max(0.0, tot - l1 - local - remote - dramhit)
        per_class.append({"class": c, "kind": kind, "total": tot,
                          "l1": l1, "local": local, "remote": remote,
                          "dram": dramhit, "memory": memory,
                          "coherence": float(np.sum(r_coh))
                          if np.ndim(r_coh) else r_coh})

    E = float(measure)
    cp = spec.core
    instr_per_event = 1.0 / (cp.ifetch_per_instr
                             + cp.data_refs_per_instr)
    instructions = int(measure * instr_per_event)

    # Aggregated per-core rates by level and kind.
    rates = {"data": [0.0] * NUM_LEVELS, "ifetch": [0.0] * NUM_LEVELS}
    rw_rates = [0.0] * NUM_LEVELS
    wb_rate = 0.0           # L1-D dirty writeback rate (per event)
    miss_wf_rate = 0.0      # LLC-fill dirty-eviction rate (per event)
    for pc in per_class:
        lane = rates[pc["kind"]]
        lane[LEVEL_L1] += pc["l1"]
        lane[LEVEL_LLC_LOCAL] += pc["local"]
        lane[LEVEL_LLC_REMOTE] += pc["remote"]
        lane[LEVEL_DRAM_CACHE] += pc["dram"]
        lane[LEVEL_MEMORY] += pc["memory"]
        c = pc["class"]
        if c.rw:
            rw_rates[LEVEL_LLC_LOCAL] += pc["local"]
            rw_rates[LEVEL_LLC_REMOTE] += pc["remote"]
            rw_rates[LEVEL_DRAM_CACHE] += pc["dram"]
            rw_rates[LEVEL_MEMORY] += pc["memory"]
        if c.write_fraction > 0:
            wb_rate += (pc["total"] - pc["l1"]) * c.write_fraction
            miss_wf_rate += (pc["remote"] + pc["dram"]
                             + pc["memory"]) * c.write_fraction

    # -- M/D/1 queueing fixpoint: IPC <-> memory arrival rate ---------
    mem_reads_rate = (rates["data"][LEVEL_MEMORY]
                      + rates["ifetch"][LEVEL_MEMORY])
    dram_hits_rate = (rates["data"][LEVEL_DRAM_CACHE]
                      + rates["ifetch"][LEVEL_DRAM_CACHE])
    if silo:
        # evicted vault blocks carry the fill stream's dirty fraction
        mem_writes = occupancy * miss_wf_rate * E * n_driven
    elif dram_pages:
        mem_writes = 0.0    # dirty LLC victims fill the DRAM cache
    else:
        mem_writes = miss_wf_rate * E * n_driven
    # MainMemory: 4 channels x 8 banks, busy = latency/2; the block
    # scatter spreads accesses uniformly over channels.
    busy_mem = max(1, int(config.memory_latency * 0.5))
    busy_dram = config.dram_cache_latency // 2
    level_lat = _level_latencies(paths, config, silo, 0.0, 0.0)
    for _ in range(6):
        cycles = []
        for core in core_ids:
            lat = level_lat[core]
            d_sum = sum(rates["data"][lvl] * lat[lvl]
                        for lvl in range(NUM_LEVELS)) * E
            i_sum = sum(rates["ifetch"][lvl] * lat[lvl]
                        for lvl in range(NUM_LEVELS)) * E
            cycles.append(instructions * cp.base_cpi
                          + i_sum * cp.ifetch_stall_factor
                          + d_sum / cp.mlp)
        if not config.memory_queueing:
            break
        elapsed = max(cycles)
        if elapsed <= 0:
            break
        acc = mem_reads_rate * E * n_driven + mem_writes
        rho = min(0.95, busy_mem * (acc / 4.0) / (8.0 * elapsed))
        new_qm = (busy_mem * rho / (2.0 * (1.0 - rho))
                  if rho > 0 else 0.0)
        new_qd = 0.0
        if dram_pages and dram_hits_rate > 0:
            accd = dram_hits_rate * E * n_driven
            rhod = min(0.95,
                       busy_dram * (accd / 8.0) / (8.0 * elapsed))
            if rhod > 0:
                new_qd = busy_dram * rhod / (2.0 * (1.0 - rhod))
        converged = (abs(new_qm - queue_mem) < 1e-3
                     and abs(new_qd - queue_dram) < 1e-3)
        queue_mem, queue_dram = new_qm, new_qd
        level_lat = _level_latencies(paths, config, silo, queue_mem,
                                     queue_dram)
        if converged:
            break

    # -- per-core summaries -------------------------------------------
    cores = []
    # L1 hits never enter the histograms.
    latency_hist = [_empty_hist() for _ in range(NUM_LEVELS)]
    for core in core_ids:
        lat = level_lat[core]
        data_count = [rates["data"][lvl] * E
                      for lvl in range(NUM_LEVELS)]
        if_count = [rates["ifetch"][lvl] * E
                    for lvl in range(NUM_LEVELS)]
        data_lat = [data_count[lvl] * lat[lvl]
                    for lvl in range(NUM_LEVELS)]
        if_lat = [if_count[lvl] * lat[lvl]
                  for lvl in range(NUM_LEVELS)]
        for lvl in range(1, NUM_LEVELS):
            _add_point_mass(latency_hist[lvl],
                            data_count[lvl] + if_count[lvl], lat[lvl])
        cores.append(CoreSummary(
            core_id=core,
            instructions=instructions,
            base_cpi=cp.base_cpi,
            mlp=cp.mlp,
            ifetch_stall_factor=cp.ifetch_stall_factor,
            data_latency=data_lat,
            data_count=data_count,
            ifetch_latency=if_lat,
            ifetch_count=if_count,
            rw_shared_latency=sum(rw_rates[lvl] * lat[lvl]
                                  for lvl in range(NUM_LEVELS)) * E,
            rw_shared_count=sum(rw_rates) * E,
        ))

    # -- counters and energy -------------------------------------------
    total = {lvl: (rates["data"][lvl] + rates["ifetch"][lvl])
             * E * n_driven for lvl in range(NUM_LEVELS)}
    beyond = sum(total[lvl] for lvl in range(1, NUM_LEVELS))
    misses = (total[LEVEL_LLC_REMOTE] + total[LEVEL_DRAM_CACHE]
              + total[LEVEL_MEMORY])
    l1_wb = wb_rate * E * n_driven
    if silo:
        probes = misses if paths.probe_lat else 0.0
        dir_dram = misses if paths.dir_lat else 0.0
        llc_accesses = (total[LEVEL_LLC_LOCAL] + probes + dir_dram
                        + total[LEVEL_LLC_REMOTE] + misses + l1_wb)
        vault_evictions = misses * occupancy
        dram_accesses = 0.0
        llc_writebacks = 0.0
        remote_forwards = total[LEVEL_LLC_REMOTE]
        directory_lookups = misses
    else:
        llc_accesses = beyond + misses + l1_wb
        vault_evictions = 0.0
        llc_writebacks = miss_wf_rate * E * n_driven
        off_chip = total[LEVEL_DRAM_CACHE] + total[LEVEL_MEMORY]
        dram_accesses = (off_chip + llc_writebacks) if dram_pages else 0.0
        remote_forwards = total[LEVEL_LLC_REMOTE]
        directory_lookups = 0.0
    mem_reads = total[LEVEL_MEMORY]
    counters = {
        "llc_accesses": llc_accesses,
        "dram_cache_accesses": dram_accesses,
        "invalidations": 0.0,
        "l1_writebacks": l1_wb,
        "llc_writebacks": llc_writebacks,
        "vault_evictions": vault_evictions,
        "directory_lookups": directory_lookups,
        "remote_forwards": remote_forwards,
        "replica_hits": 0.0,
        "prefetch_fills": 0.0,
        "link_traversals": 0.0,
        "memory_accesses": mem_reads + mem_writes,
        "memory_reads": mem_reads,
        "memory_writes": mem_writes,
    }
    energy = energy_breakdown(config.llc_kind, config.num_cores,
                              llc_accesses, counters["memory_accesses"],
                              dram_accesses)

    envelope = load_envelope()
    return EstimateSummary(
        schema=ENGINE_SCHEMA,
        request_key="",
        config=plain(config),
        seed=request.seed,
        core_ids=core_ids,
        warmup_events=plan.warmup_events,
        measure_events=plan.measure_events,
        warmup_wall_s=0.0,
        measure_wall_s=0.0,
        cores=cores,
        latency_hist=latency_hist,
        counters=counters,
        sharing=None,
        energy=energy,
        error_bound=error_bounds(envelope),
        in_trust_region=in_trust_region(request, envelope),
    )


def estimate_to_summary(request, request_key=""):
    """Engine entry point: estimate and stamp the request key."""
    summary = estimate_request(request)
    summary.request_key = request_key
    return summary
