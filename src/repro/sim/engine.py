"""Parallel, memoized run engine for experiment grids.

Every figure in the reproduction is a grid of *independent,
deterministic* simulation points: a system configuration, a workload
placement, a sampling plan and a seed fully determine the result.  The
engine exploits exactly that:

* a :class:`RunRequest` is the canonical, hashable description of one
  point (it also covers heterogeneous colocation placements, so the
  SPEC mixes and the isolation study key the same way);
* :class:`RunEngine` fans a batch of requests out through an executor
  transport -- a local process pool (``--jobs N`` / ``$REPRO_JOBS``;
  ``jobs=1`` is a plain in-process loop) or a job server over HTTP --
  deduplicating identical points first;
* a :class:`RunCache` memoizes finished points on disk, keyed by a
  content hash of the request *and* a fingerprint of the simulator's
  own source (git sha + per-file digests), so results survive across
  figures and sessions but never across code changes;
* a :class:`RunSummary` is the picklable, JSON-able result of one
  point -- per-core per-level latency sums and counts, latency
  histograms, retired instructions, RW-shared splits, system counters,
  the energy breakdown -- rich enough that every re-evaluation helper
  of :class:`~repro.sim.driver.RunResult` (``performance`` under level
  scaling, RW-shared multipliers, ...) re-runs from the summary without
  re-simulating.

Experiment modules declare their grids and call :func:`run_grid`; the
CLI installs a configured engine with :func:`use_engine`.  When no
engine is installed, a default one is built from the environment
(``$REPRO_JOBS``, ``$REPRO_CACHE_DIR``) -- serial and cache-less unless
those are set, so library calls and the test suite stay hermetic.

Observation sessions interact with the engine as follows: a session
that collects stats or traces needs live ``System`` objects, so the
engine bypasses the cache and the process pool and simulates in-process
(results are bit-identical either way; sessions stay inert).  A session
that only collects manifests works in every mode -- points executed
in-process are recorded by ``run_system`` as before, while cached and
worker-executed points are recorded from their summaries.
"""

import functools
import hashlib
import json
import math
import os
import pickle
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

from repro.cores.perf_model import (
    CoreParams, NUM_LEVELS, LEVEL_NAMES, LEVEL_LLC_LOCAL,
    LEVEL_LLC_REMOTE, LEVEL_DRAM_CACHE, LEVEL_MEMORY)
from repro.faults.plan import FaultPlan, current_plan
from repro.obs import manifest as _manifest
from repro.obs import session as _obs_session
from repro.obs.profile import clock
from repro.obs.recorder import FlightRecorder
from repro.obs.stats import Distribution, Group
from repro.sim.config import HierarchyConfig, LLC_PRIVATE_VAULT
from repro.sim.driver import (DEFAULT_CHUNK, check_chunk, default_chunk,
                              run_system)
from repro.sim.sampling import SamplingPlan
from repro.workloads.base import WorkloadSpec

#: Bump when RunSummary's shape or the request canonicalization
#: changes: stale cache entries must not satisfy new-schema lookups.
#: /2: requests carry an optional FaultPlan (keys and summaries of
#: faulted runs must never alias fault-free ones).
#: /3: requests record which drive loop produced them.
#: /4: requests carry an execution mode ("simulate" or "estimate",
#: repro.analytic.estimator) and summaries record it.  An analytic
#: estimate is an approximation with a documented error envelope --
#: it must never replay from a simulate-mode cache entry, nor the
#: other way around, so the mode is part of the canonical request.
#: /5: that drive-loop setting is gone again: every run takes the one
#: drive loop, so a key no longer names it.
ENGINE_SCHEMA = "silo-repro-runsummary/5"

#: Execution modes a RunRequest may carry ("auto" is an engine-level
#: triage policy, never a request mode: triage resolves each point to
#: one of these two before keying).
REQUEST_MODES = ("simulate", "estimate")

#: Engine-level execution policies (--mode): "simulate" runs every
#: point through the trace-driven simulator, "estimate" resolves
#: estimator-capable points analytically, "auto" estimates whole grids
#: and falls back to simulation outside the validated error envelope
#: or near a shared-vs-SILO decision boundary.
ENGINE_MODES = ("simulate", "estimate", "auto")

#: Default on-disk cache location (the CLI's default; library use only
#: caches when $REPRO_CACHE_DIR is set -- see resolve_cache_dir).
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "silo-repro")


# ---------------------------------------------------------------------------
# request keying
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunRequest:
    """Canonical description of one simulation point.

    ``placements`` assigns workloads to cores: a single entry covering
    all (or a subset of) cores for homogeneous runs, several disjoint
    entries for colocation.  Cores outside every placement exist but
    are not driven (their params default to :class:`CoreParams`),
    matching the isolation study's idle cores.
    """

    config: HierarchyConfig
    placements: Tuple[Tuple[WorkloadSpec, Tuple[int, ...]], ...]
    plan: SamplingPlan
    seed: int
    colocated: bool = False
    track_sharing: bool = False
    chunk: int = DEFAULT_CHUNK
    #: Optional fault plan (repro.faults); None means fault-free and
    #: keys differently from any active plan.
    faults: Optional[FaultPlan] = None
    #: How the point is resolved: "simulate" (trace-driven simulator)
    #: or "estimate" (repro.analytic.estimator).  Part of the key, so
    #: analytic approximations can never alias simulated results.
    mode: str = "simulate"

    def __post_init__(self):
        # A chunk below 1 would never advance the drive loop: reject it
        # here, where a posted request is rebuilt, so the server answers
        # 400 instead of running a job that cannot finish.  The same
        # goes for a seed the workload generator's numpy RNG refuses.
        check_chunk(self.chunk)
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) \
                or seed < 0:
            raise ValueError("seed must be an integer >= 0, got %r"
                             % (seed,))
        # Every System builds a square mesh of its cores.
        n = self.config.num_cores
        if math.isqrt(n) ** 2 != n:
            raise ValueError("num_cores=%d is not a perfect square; "
                             "every system is a square mesh" % n)
        # A request drives at least one core, and one that is not
        # colocated has exactly one placement (the simulator and the
        # estimator unpack one).
        if not self.placements:
            raise ValueError("a run request needs at least one placement")
        if not self.colocated and len(self.placements) > 1:
            raise ValueError("%d placements on a request that is not "
                             "colocated" % len(self.placements))
        # Core ids index the system's cores, and each core runs one
        # trace; fault targets index the injector's vaults/banks, one
        # per core.  Out of range or named twice, a run would fail
        # midway, drive a core with two traces or silently inject
        # nothing.
        seen = set()
        for _spec, core_ids in self.placements:
            if not core_ids:
                raise ValueError("a placement names no core")
            for core in core_ids:
                if not 0 <= core < n:
                    raise ValueError("placement core id %r outside a "
                                     "%d-core system" % (core, n))
                if core in seen:
                    raise ValueError("placement core id %r named twice"
                                     % (core,))
                seen.add(core)
        faults = self.faults
        if faults is not None:
            vaults = [ev[1] for ev in faults.vault_events]
            if faults.target is not None:
                vaults.append(faults.target)
            for vault in vaults:
                if not 0 <= vault < n:
                    raise ValueError("fault plan names vault/bank %r; a "
                                     "%d-core system has 0..%d"
                                     % (vault, n, n - 1))

    @classmethod
    def point(cls, config, spec, plan, seed, core_ids=None,
              track_sharing=False, chunk=None, faults=None,
              mode="simulate"):
        """A homogeneous point: ``spec`` on all cores (or ``core_ids``),
        exactly like :func:`repro.sim.driver.simulate`.  ``faults``
        defaults to the ambient plan installed by
        :func:`repro.faults.use_plan` (None when none is installed);
        ``chunk`` defaults to the ambient setting
        (:func:`repro.sim.driver.use_chunk`)."""
        if core_ids is None:
            core_ids = tuple(range(config.num_cores))
        if faults is None:
            faults = current_plan()
        if chunk is None:
            chunk = default_chunk()
        return cls(config=config, placements=((spec, tuple(core_ids)),),
                   plan=plan, seed=seed, colocated=False,
                   track_sharing=track_sharing, chunk=chunk,
                   faults=faults, mode=mode)

    @classmethod
    def colocation(cls, config, assignments, plan, seed,
                   chunk=None, faults=None, mode="simulate"):
        """A heterogeneous point: ``assignments`` is a list of
        ``(spec, core_ids)`` pairs with disjoint core sets, exactly like
        :func:`repro.workloads.colocation.generate_colocation_traces`."""
        placements = tuple((spec, tuple(ids))
                           for spec, ids in assignments)
        if faults is None:
            faults = current_plan()
        if chunk is None:
            chunk = default_chunk()
        return cls(config=config, placements=placements, plan=plan,
                   seed=seed, colocated=True, track_sharing=False,
                   chunk=chunk, faults=faults, mode=mode)

    def canonical(self):
        """JSON-native dict that fully determines the simulation."""
        return {
            "config": asdict(self.config),
            "placements": [
                {"spec": asdict(spec), "core_ids": list(ids)}
                for spec, ids in self.placements],
            "plan": asdict(self.plan),
            "seed": self.seed,
            "colocated": self.colocated,
            "track_sharing": self.track_sharing,
            "chunk": self.chunk,
            "faults": (None if self.faults is None
                       else self.faults.canonical()),
            "mode": self.mode,
        }

    @classmethod
    def from_canonical(cls, data):
        """Rebuild a request from its :meth:`canonical` dict.

        This is the wire format of the job server (``repro.serve``):
        a request travels as JSON, is reconstructed here, and must key
        identically to the original --
        ``RunRequest.from_canonical(r.canonical()).key(f) == r.key(f)``
        for every fingerprint ``f`` (the round-trip property the serve
        tests pin).  Validation is the dataclasses' own
        ``__post_init__`` checks, plus a refusal of any key
        :meth:`canonical` does not write (a misspelled field would
        otherwise be dropped and the request keyed without it);
        malformed payloads raise ``ValueError``/``TypeError``/
        ``KeyError`` for the server to turn into a 400.
        """
        from repro.workloads.base import CodeSpec, RegionSpec

        unknown = data.keys() - cls.__dataclass_fields__.keys()
        if unknown:
            raise ValueError("unknown run request field(s): %s"
                             % ", ".join(sorted(map(str, unknown))))

        def spec_from(d):
            return WorkloadSpec(
                name=d["name"],
                code=CodeSpec(**d["code"]),
                regions=tuple(RegionSpec(**r) for r in d["regions"]),
                core=CoreParams(**d["core"]),
                rw_shared_region=d.get("rw_shared_region", ""))

        faults = None
        if data.get("faults") is not None:
            fd = dict(data["faults"])
            fd["vault_events"] = tuple(
                tuple(ev) for ev in fd.get("vault_events", ()))
            faults = FaultPlan(**fd)
        return cls(
            config=HierarchyConfig(**data["config"]),
            placements=tuple(
                (spec_from(p["spec"]), tuple(p["core_ids"]))
                for p in data["placements"]),
            plan=SamplingPlan(**data["plan"]),
            seed=data["seed"],
            colocated=data.get("colocated", False),
            track_sharing=data.get("track_sharing", False),
            chunk=data.get("chunk", DEFAULT_CHUNK),
            faults=faults,
            mode=data.get("mode", "simulate"))

    def key(self, fingerprint=""):
        """Content-address of this point under a code fingerprint."""
        blob = json.dumps({"schema": ENGINE_SCHEMA, "code": fingerprint,
                           "request": self.canonical()},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @staticmethod
    def is_key(text):
        """Whether ``text`` has the shape :meth:`key` produces (64
        lowercase hex digits), so it is safe to use as a cache path."""
        return re.fullmatch("[0-9a-f]{64}", text) is not None


def fingerprint_files():
    """Package-relative paths of every source file the code
    fingerprint covers: all ``.py`` files under the ``repro`` package,
    in deterministic order.  The walk picks up new subpackages
    automatically -- ``repro/faults`` must appear here so cached
    fault-free summaries miss cleanly when the fault model changes."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                out.append(os.path.relpath(path, root))
    return out


@functools.lru_cache(maxsize=1)
def code_fingerprint():
    """Digest of the simulator's own source: the git sha plus a sha256
    over every ``repro`` package file's contents (the
    :func:`fingerprint_files` set).  Hashing file contents (not just
    the sha) keeps dirty working trees from replaying stale cache
    entries."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256()
    h.update((_manifest.git_sha() or "no-git").encode("utf-8"))
    for rel in fingerprint_files():
        h.update(rel.encode("utf-8"))
        with open(os.path.join(root, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# run summaries
# ---------------------------------------------------------------------------


@dataclass
class CoreSummary:
    """One driven core's measurement window, detached from the live
    CoreModel.  The evaluation methods replicate CoreModel's arithmetic
    operation-for-operation so re-evaluated metrics are bit-identical
    to the live object's."""

    core_id: int
    instructions: int
    base_cpi: float
    mlp: float
    ifetch_stall_factor: float
    data_latency: List[float]
    data_count: List[int]
    ifetch_latency: List[float]
    ifetch_count: List[int]
    rw_shared_latency: float
    rw_shared_count: int
    #: Per service level: {"max_bucket", "buckets", "count", "total",
    #: "min", "max"} -- a Distribution's full state.
    latency_hist: List[dict] = field(default_factory=list)

    def stall_cycles(self, level_scale=None, rw_shared_extra_factor=0.0):
        data = 0.0
        ifetch = 0.0
        if level_scale is None:
            data = sum(self.data_latency)
            ifetch = sum(self.ifetch_latency)
        else:
            for lvl in range(NUM_LEVELS):
                data += self.data_latency[lvl] * level_scale[lvl]
                ifetch += self.ifetch_latency[lvl] * level_scale[lvl]
        data += self.rw_shared_latency * rw_shared_extra_factor
        return ifetch * self.ifetch_stall_factor + data / self.mlp

    def cycles(self, level_scale=None, rw_shared_extra_factor=0.0):
        return (self.instructions * self.base_cpi
                + self.stall_cycles(level_scale, rw_shared_extra_factor))

    def ipc(self, level_scale=None, rw_shared_extra_factor=0.0):
        cyc = self.cycles(level_scale, rw_shared_extra_factor)
        return self.instructions / cyc if cyc > 0 else 0.0


def _hist_state(dist):
    return {"max_bucket": dist.max_bucket,
            "buckets": list(dist.buckets),
            "count": dist.count, "total": dist.total,
            "min": dist.min, "max": dist.max}


def _hist_restore(state, name="latency", desc=""):
    dist = Distribution(name, desc=desc, max_bucket=state["max_bucket"])
    dist.buckets = list(state["buckets"])
    dist.count = state["count"]
    dist.total = state["total"]
    dist.min = state["min"]
    dist.max = state["max"]
    return dist


@dataclass
class RunSummary:
    """Everything an experiment can ask of a finished point, in plain
    picklable/JSON-able data (no live System attached).

    Mirrors :class:`~repro.sim.driver.RunResult`'s evaluation API;
    values are bit-identical to the live object's because the same
    sums feed the same arithmetic.
    """

    schema: str
    request_key: str
    config: dict                  # asdict(HierarchyConfig)
    seed: Optional[int]
    core_ids: List[int]
    warmup_events: int
    measure_events: int
    warmup_wall_s: float
    measure_wall_s: float
    cores: List[CoreSummary]
    #: System-level counters of the measurement window.
    counters: dict
    #: (reads, writes_nosharing, writes_rwsharing) when the request
    #: asked for sharing classification, else None.
    sharing: Optional[Tuple[int, int, int]]
    #: Default EnergyModel breakdown of the window (Table III units).
    energy: dict
    #: How the summary was produced: "simulate" here; the analytic
    #: backend's EstimateSummary subclass carries "estimate".
    mode: str = "simulate"

    # -- performance (RunResult mirror) --------------------------------

    def per_core_ipc(self, level_scale=None, rw_shared_extra_factor=0.0):
        return [c.ipc(level_scale, rw_shared_extra_factor)
                for c in self.cores]

    def performance(self, level_scale=None, rw_shared_extra_factor=0.0):
        return sum(self.per_core_ipc(level_scale,
                                     rw_shared_extra_factor))

    def performance_with_llc_scale(self, factor):
        scale = [1.0] * NUM_LEVELS
        scale[LEVEL_LLC_LOCAL] = factor
        scale[LEVEL_LLC_REMOTE] = factor
        return self.performance(level_scale=scale)

    def performance_with_rw_multiplier(self, multiplier):
        return self.performance(rw_shared_extra_factor=multiplier - 1.0)

    def ipc_of(self, core_ids):
        """Aggregate IPC of a subset of the driven cores (Table VI)."""
        by_id = {c.core_id: c for c in self.cores}
        return sum(by_id[c].ipc() for c in core_ids)

    # -- memory system statistics --------------------------------------

    def _sum_counts(self, attr):
        totals = [0] * NUM_LEVELS
        for c in self.cores:
            counts = getattr(c, attr)
            for lvl in range(NUM_LEVELS):
                totals[lvl] += counts[lvl]
        return totals

    def level_counts(self):
        d = self._sum_counts("data_count")
        i = self._sum_counts("ifetch_count")
        return [d[lvl] + i[lvl] for lvl in range(NUM_LEVELS)]

    def instructions(self):
        return sum(c.instructions for c in self.cores)

    def llc_breakdown(self):
        counts = self.level_counts()
        local = counts[LEVEL_LLC_LOCAL]
        remote = counts[LEVEL_LLC_REMOTE]
        miss = counts[LEVEL_DRAM_CACHE] + counts[LEVEL_MEMORY]
        return local, remote, miss

    def llc_mpki(self):
        instrs = self.instructions()
        if instrs == 0:
            return 0.0
        _, _, miss = self.llc_breakdown()
        return 1000.0 * miss / instrs

    def max_core_cycles(self):
        """Slowest driven core's cycle count (the measured window's
        wall clock in core cycles, Fig. 13)."""
        return max(c.cycles() for c in self.cores)

    def llc_power_w(self, seconds):
        """Average LLC power over ``seconds`` (static + dynamic)."""
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        return (self.energy["llc_static_w"]
                + self.energy["llc_dynamic_nj"] * 1e-9 / seconds)

    # -- observability -------------------------------------------------

    def driven_events(self):
        return self.measure_events * len(self.core_ids)

    def events_per_sec(self):
        if self.measure_wall_s <= 0:
            return 0.0
        return self.driven_events() / self.measure_wall_s

    def latency_percentiles(self):
        out = {}
        for lvl, name in enumerate(LEVEL_NAMES):
            merged = Distribution("latency", desc=name)
            for c in self.cores:
                merged.merge(_hist_restore(c.latency_hist[lvl]))
            if merged.count:
                out[name] = merged.value()
        return out

    def manifest(self):
        """Provenance record comparable to ``RunResult.manifest()``
        (without live-System extras like the stats snapshot)."""
        data = {
            "schema": _manifest.MANIFEST_SCHEMA,
            "git_sha": _manifest.git_sha(),
            "config": dict(self.config),
            "scale": self.config.get("scale"),
            "seed": self.seed,
            "sampling": {"warmup_events": self.warmup_events,
                         "measure_events": self.measure_events},
            "wall_clock": {"warmup_s": self.warmup_wall_s,
                           "measure_s": self.measure_wall_s},
            "throughput": {"driven_events": self.driven_events(),
                           "events_per_sec": self.events_per_sec()},
            "performance": self.performance(),
            "latency_percentiles": self.latency_percentiles(),
            "engine": {"request_key": self.request_key,
                       "mode": self.mode},
        }
        if self.config.get("llc_kind") == LLC_PRIVATE_VAULT:
            data["protocol_provenance"] = _manifest.protocol_provenance()
        if "faults" in self.counters:
            data["faults"] = {"counters": dict(self.counters["faults"])}
        return data

    # -- serialization -------------------------------------------------

    def to_dict(self):
        """JSON-native dict (``from_dict`` round-trips it exactly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        data["cores"] = [CoreSummary(**c) for c in data["cores"]]
        if data.get("sharing") is not None:
            data["sharing"] = tuple(data["sharing"])
        return cls(**data)


def summarize(result, request_key=""):
    """Build a :class:`RunSummary` from a live RunResult."""
    from repro.energy.model import EnergyModel

    sys_ = result.system
    cores = []
    for c in result.core_ids:
        core = sys_.cores[c]
        p = core.params
        cores.append(CoreSummary(
            core_id=c,
            instructions=core.instructions,
            base_cpi=p.base_cpi,
            mlp=p.mlp,
            ifetch_stall_factor=p.ifetch_stall_factor,
            data_latency=list(core.data_latency),
            data_count=list(core.data_count),
            ifetch_latency=list(core.ifetch_latency),
            ifetch_count=list(core.ifetch_count),
            rw_shared_latency=core.rw_shared_latency,
            rw_shared_count=core.rw_shared_count,
            latency_hist=[_hist_state(h) for h in core.latency_hist],
        ))
    counters = {
        "llc_accesses": sys_.llc_accesses,
        "dram_cache_accesses": sys_.dram_cache_accesses,
        "invalidations": sys_.invalidations,
        "l1_writebacks": sys_.l1_writebacks,
        "llc_writebacks": sys_.llc_writebacks,
        "vault_evictions": sys_.vault_evictions,
        "directory_lookups": sys_.directory_lookups,
        "remote_forwards": sys_.remote_forwards,
        "replica_hits": sys_.replica_hits,
        "prefetch_fills": sys_.prefetch_fills,
        "link_traversals": sys_.mesh.link_traversals,
        "memory_accesses": sys_.memory.accesses,
        "memory_reads": sys_.memory.reads,
        "memory_writes": sys_.memory.writes,
    }
    if sys_.faults is not None:
        # Present only for faulted runs: fault-free summaries keep
        # their pre-faults shape byte-for-byte.
        counters["faults"] = sys_.faults.counters_dict()
    sharing = sys_.sharing_breakdown() if sys_.track_sharing else None
    bd = EnergyModel().breakdown(sys_)
    energy = {
        "llc_dynamic_nj": bd.llc_dynamic_nj,
        "memory_dynamic_nj": bd.memory_dynamic_nj,
        "total_dynamic_nj": bd.total_dynamic_nj,
        "llc_static_w": bd.llc_static_w,
        "memory_static_w": bd.memory_static_w,
    }
    return RunSummary(
        schema=ENGINE_SCHEMA,
        request_key=request_key,
        config=asdict(sys_.config),
        seed=None,
        core_ids=list(result.core_ids),
        warmup_events=result.warmup_events,
        measure_events=result.measure_events,
        warmup_wall_s=result.warmup_wall_s,
        measure_wall_s=result.measure_wall_s,
        cores=cores,
        counters=counters,
        sharing=sharing,
        energy=energy,
    )


# ---------------------------------------------------------------------------
# point execution (also the process-pool worker)
# ---------------------------------------------------------------------------


def execute_request(request):
    """Simulate one point; returns the live RunResult.

    This is the single source of truth for how a RunRequest turns into
    a simulation -- the serial path, the pool workers and the
    determinism tests all go through it.
    """
    from repro.sim.system import System
    from repro.workloads.colocation import generate_colocation_traces
    from repro.workloads.generator import generate_traces

    config = request.config
    plan = request.plan
    core_params = [None] * config.num_cores
    for spec, core_ids in request.placements:
        for c in core_ids:
            core_params[c] = spec.core
    idle = CoreParams()
    core_params = [p if p is not None else idle for p in core_params]
    system = System(config, core_params)
    system.track_sharing = request.track_sharing
    if request.faults is not None and request.faults.active():
        # Inactive plans (all-zero rates, no events) attach nothing,
        # so they are bit-identical to fault-free requests.
        from repro.faults.injector import FaultInjector
        system.attach_faults(
            FaultInjector(request.faults, config.num_cores))
    if request.colocated:
        traces, _layouts = generate_colocation_traces(
            [(spec, list(ids)) for spec, ids in request.placements],
            events_per_core=plan.total_events, scale=config.scale,
            seed=request.seed)
    else:
        ((spec, core_ids),) = request.placements
        traces, layout = generate_traces(
            spec, num_cores=len(core_ids),
            events_per_core=plan.total_events, scale=config.scale,
            seed=request.seed, core_ids=list(core_ids))
        system.rw_shared_range = layout.rw_shared_range
    return run_system(system, traces, plan.warmup_events,
                      plan.measure_events, request.chunk,
                      seed=request.seed)


def _execute_to_summary(request, request_key):
    if request.mode == "estimate":
        # Single dispatch seam: anything that executes a request
        # (serial path, pool worker, determinism tests) honours the
        # request's mode.
        from repro.analytic.estimator import estimate_to_summary
        return estimate_to_summary(request, request_key)
    summary = summarize(execute_request(request), request_key)
    summary.seed = request.seed
    return summary


def _pool_worker(payload):
    """Top-level (picklable) ProcessPoolExecutor entry point; returns
    ``(summary, meta)`` in the transport contract, ``meta`` naming the
    worker pid and its execution wall clock for the parent's flight
    recorder."""
    request, request_key = payload
    t0 = clock()
    summary = _execute_to_summary(request, request_key)
    return summary, {"worker": "pid:%d" % os.getpid(),
                     "exec_s": clock() - t0}


def _stamp_done(done_at, key, _fut):
    """``add_done_callback`` hook: stamp a future's completion on the
    *parent's* clock (worker timestamps are not comparable across
    processes; the worker only reports its execution duration)."""
    done_at[key] = clock()


class LocalPoolTransport:
    """A local ``ProcessPoolExecutor`` of ``jobs`` workers as an
    executor transport (see :attr:`RunEngine.transport`)."""

    def __init__(self, jobs=2):
        self.jobs = max(1, int(jobs))
        self._pool = None

    def start(self):
        if self._pool is None:
            # Imported here: loading multiprocessing costs milliseconds
            # of set-up that a run without a pool should not pay.
            from concurrent.futures import ProcessPoolExecutor
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)

    def stop(self):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def submit(self, request, key):
        if self._pool is None:
            raise RuntimeError("transport not started")
        return self._pool.submit(_pool_worker, (request, key))

    def capacity(self):
        return self.jobs

    def describe(self):
        return "local-pool:%d" % self.jobs


# ---------------------------------------------------------------------------
# on-disk cache
# ---------------------------------------------------------------------------


class RunCache:
    """Content-addressed pickle store of RunSummaries.

    Entries live at ``<dir>/<key[:2]>/<key>.pkl``; writes go through a
    temp file + ``os.replace`` so concurrent engines only ever see
    complete entries.  Unreadable or stale-schema entries read as
    misses (and are left for a future overwrite).

    ``max_bytes`` bounds the cache's on-disk footprint
    (``--cache-max-bytes`` / ``$REPRO_CACHE_MAX_BYTES``; None =
    unbounded): after every write the least-recently-used entries are
    evicted, oldest access first, until the total fits.  Access order
    is kept with an explicit ``os.utime`` touch on every hit, so LRU
    survives filesystems mounted ``noatime``.  Evictions are counted
    in :attr:`pruned_entries` (surfaced through the engine stats
    group)."""

    def __init__(self, directory, max_bytes=None):
        self.directory = os.path.abspath(os.path.expanduser(directory))
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None "
                             "for an unbounded cache)")
        self.max_bytes = max_bytes
        self.pruned_entries = 0

    def path_for(self, key):
        return os.path.join(self.directory, key[:2], key + ".pkl")

    def get(self, key):
        path = self.path_for(key)
        try:
            with open(path, "rb") as f:
                summary = pickle.load(f)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            return None
        if (not isinstance(summary, RunSummary)
                or summary.schema != ENGINE_SCHEMA):
            return None
        try:
            os.utime(path)          # refresh LRU order on hit
        except OSError:
            pass
        return summary

    def put(self, key, summary):
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "wb") as f:
            pickle.dump(summary, f, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        if self.max_bytes is not None:
            self.prune()
        return path

    def entries(self):
        """``(atime, size, path)`` for every cache entry, oldest
        access first (the eviction order)."""
        out = []
        try:
            shards = sorted(os.listdir(self.directory))
        except OSError:
            return out
        for shard in shards:
            shard_dir = os.path.join(self.directory, shard)
            try:
                names = sorted(os.listdir(shard_dir))
            except OSError:
                continue
            for name in names:
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                out.append((st.st_atime, st.st_size, path))
        out.sort()
        return out

    def total_bytes(self):
        return sum(size for _atime, size, _path in self.entries())

    def prune(self, max_bytes=None):
        """Evict least-recently-used entries until the cache fits in
        ``max_bytes`` (defaulting to the configured cap); returns the
        number of entries removed."""
        cap = max_bytes if max_bytes is not None else self.max_bytes
        if cap is None:
            return 0
        entries = self.entries()
        total = sum(size for _atime, size, _path in entries)
        removed = 0
        for _atime, size, path in entries:
            if total <= cap:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            removed += 1
        self.pruned_entries += removed
        return removed


def resolve_cache_dir(default=None):
    """Cache directory policy: ``$REPRO_CACHE_DIR`` wins (empty string
    disables caching entirely), else ``default`` (the CLI passes
    ``DEFAULT_CACHE_DIR``; library use passes None -> no cache)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        return os.path.expanduser(env) if env else None
    return os.path.expanduser(default) if default else None


def cache_max_bytes_from_env():
    """Cache size cap from ``$REPRO_CACHE_MAX_BYTES`` (None =
    unbounded; suffixes k/m/g are 1024-based)."""
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    if not raw:
        return None
    return parse_size_bytes(raw)


def parse_size_bytes(raw):
    """Parse a byte count like ``500m``/``2g``/``1048576``."""
    text = str(raw).strip().lower()
    mult = 1
    if text and text[-1] in "kmg":
        mult = 1024 ** ("kmg".index(text[-1]) + 1)
        text = text[:-1]
    try:
        value = int(text) * mult
    except ValueError:
        raise ValueError("invalid byte size %r (use an integer with "
                         "an optional k/m/g suffix)" % (raw,)) from None
    if value <= 0:
        raise ValueError("byte size must be positive, got %r" % (raw,))
    return value


def jobs_from_env():
    """Worker count from ``$REPRO_JOBS`` (default 1 = serial)."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError("REPRO_JOBS must be an integer, got %r"
                         % raw) from None
    return max(1, jobs)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class RunEngine:
    """Executes batches of RunRequests with dedup, memoization and
    process fan-out; accumulates its own observability counters in a
    stats registry group (recorded into experiment manifests)."""

    def __init__(self, jobs=None, cache=None, mode="simulate",
                 transport=None):
        if mode not in ENGINE_MODES:
            raise ValueError("unknown engine mode %r (choose from %s)"
                             % (mode, ", ".join(ENGINE_MODES)))
        self.jobs = max(1, int(jobs)) if jobs is not None \
            else jobs_from_env()
        self.cache = cache
        self.mode = mode
        #: Executor transport: where simulated points run.  None means
        #: in-process when ``jobs<=1`` and a per-batch
        #: :class:`LocalPoolTransport` otherwise.  An installed one
        #: (a long-lived local pool, a job server over HTTP) takes
        #: every simulated point and is started and stopped by its
        #: owner.  Contract: ``start()``, ``stop()``,
        #: ``capacity()`` (advisory parallelism), ``describe()``, and
        #: ``submit(request, key)`` returning a Future of ``(summary,
        #: meta)`` with ``meta = {"worker": str, "exec_s": float}``.
        self.transport = transport
        self.fingerprint = code_fingerprint()
        self.requests = 0
        self.unique_points = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.executed = 0
        self.exec_wall_s = 0.0
        self.driven_events = 0
        self.estimated = 0
        self.estimate_wall_s = 0.0
        self.estimate_fallbacks = 0
        self.auto_boundary_simulations = 0
        #: Per-request span log + engine gauges (repro.obs.recorder).
        self.recorder = FlightRecorder()
        self.stats = self._build_stats()

    def _build_stats(self):
        g = Group("engine", "run engine throughput and memoization")
        g.bind(self, "jobs", desc="process-pool width (1 = serial)",
               resettable=False)
        g.bind(self, "requests", desc="points requested by experiments")
        g.bind(self, "unique_points",
               desc="distinct points after in-batch dedup")
        g.bind(self, "cache_hits", desc="points restored from RunCache")
        g.bind(self, "cache_misses",
               desc="cache lookups that missed (then simulated)")
        g.bind(self, "executed", desc="points actually simulated")
        g.bind(self, "exec_wall_s",
               desc="wall-clock seconds spent executing points")
        g.bind(self, "driven_events",
               desc="measured events driven across executed points")
        g.bind(self, "estimated",
               desc="points resolved analytically (estimate mode)")
        g.bind(self, "estimate_wall_s",
               desc="wall-clock seconds spent in the analytic backend")
        g.bind(self, "estimate_fallbacks",
               desc="estimate-incapable or untrusted points simulated")
        g.bind(self, "auto_boundary_simulations",
               desc="auto-mode points simulated near a decision "
                    "boundary")
        g.formula("events_per_sec", self.events_per_sec,
                  desc="engine-level simulation throughput")
        g.formula("cache_hit_ratio", self.cache_hit_ratio,
                  desc="fraction of cache lookups that hit")
        g.formula("in_flight", lambda: self.recorder.in_flight,
                  desc="requests dispatched in the open batch")
        g.formula("worker_utilization",
                  lambda: self.recorder.utilization(self.capacity()),
                  desc="busy seconds over worker-count x batch wall")
        g.formula("cache_pruned_entries",
                  lambda: (self.cache.pruned_entries
                           if self.cache is not None else 0),
                  desc="run-cache entries evicted by the LRU size cap")
        return g

    def events_per_sec(self):
        if self.exec_wall_s <= 0:
            return 0.0
        return self.driven_events / self.exec_wall_s

    def capacity(self):
        """Worker count points fan out to: the transport's capacity,
        else ``jobs``."""
        if self.transport is not None:
            return self.transport.capacity()
        return self.jobs

    def cache_hit_ratio(self):
        """Warm-cache hit ratio across this engine's lifetime."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def snapshot(self):
        """The engine stats group as a plain dict (manifest-ready)."""
        snap = self.stats.snapshot()
        snap["mode"] = self.mode
        snap["cache_dir"] = (self.cache.directory
                             if self.cache is not None else None)
        snap["cache_max_bytes"] = (self.cache.max_bytes
                                   if self.cache is not None else None)
        snap["transport"] = (self.transport.describe()
                             if self.transport is not None else "local")
        snap["flight_recorder"] = self.recorder.summary(self.capacity())
        return snap

    @staticmethod
    def _note_span(session, span):
        """Stream one flight-recorder span through the session (the
        job-server progress seam); no-op when nothing is observing."""
        if session is not None:
            session.emit("engine_span", span)

    def _apply_mode_policy(self, requests):
        """Resolve the engine-level mode into per-request modes.

        ``estimate`` rewrites every estimator-capable request;
        ``auto`` asks the estimator's triage (envelope trust region +
        decision-boundary analysis) which points may be estimated.
        Requests the estimator cannot or should not handle keep their
        simulate mode and are counted as fallbacks."""
        from dataclasses import replace

        from repro.analytic import estimator as _estimator

        if self.mode == "estimate":
            decisions = [
                "estimate" if (req.mode == "estimate"
                               or _estimator.can_estimate(req))
                else "fallback"
                for req in requests]
        else:
            decisions = _estimator.triage(requests)
        out = []
        for req, decision in zip(requests, decisions):
            if decision == "estimate":
                out.append(req if req.mode == "estimate"
                           else replace(req, mode="estimate"))
            else:
                if decision == "boundary":
                    self.auto_boundary_simulations += 1
                else:
                    self.estimate_fallbacks += 1
                out.append(req)
        return out

    def run(self, requests):
        """Execute a batch; returns RunSummaries aligned with
        ``requests`` (duplicates share one simulation)."""
        requests = list(requests)
        for req in requests:
            if req.mode not in REQUEST_MODES:
                raise ValueError("unknown request mode %r" % (req.mode,))
        self.requests += len(requests)
        if self.mode != "simulate":
            requests = self._apply_mode_policy(requests)
        session = _obs_session.current_session()
        # Tracing, stats inspection, telemetry sampling and profiling
        # all need live Systems: force in-process execution and skip
        # cache reads so every point simulates.
        live_only = session is not None and session.needs_live()
        rec = self.recorder

        keys = [req.key(self.fingerprint) for req in requests]
        order = []
        by_key = {}
        for req, key in zip(requests, keys):
            if key not in by_key:
                by_key[key] = req
                order.append(key)
        self.unique_points += len(order)
        rec.start_batch(len(order))
        t_batch = clock()

        summaries = {}
        missing = []
        for key in order:
            cached = None
            if self.cache is not None and not live_only:
                t_s = clock()
                cached = self.cache.get(key)
                if cached is not None:
                    self.cache_hits += 1
                    self._note_span(session, rec.record(
                        key, "cache-replay", "local", 0.0,
                        clock() - t_s, t_s - rec.epoch))
                else:
                    self.cache_misses += 1
            if cached is not None:
                summaries[key] = cached
                if session is not None:
                    session.note_summary(cached)
            else:
                missing.append(key)

        est_missing = [k for k in missing
                       if by_key[k].mode == "estimate"]
        if est_missing:
            # Analytic points resolve in microseconds: always
            # in-process, with their own wall-clock accounting so the
            # simulation throughput stats stay comparable.
            from repro.analytic.estimator import estimate_to_summary
            t0 = clock()
            for k in est_missing:
                t_s = clock()
                summary = estimate_to_summary(by_key[k], k)
                summaries[k] = summary
                self.estimated += 1
                self.estimate_wall_s += clock() - t_s
                self._note_span(session, rec.record(
                    k, "estimate", "local", t_s - t0,
                    clock() - t_s, t_s - rec.epoch))
                if session is not None:
                    session.note_summary(summary)
                if self.cache is not None and not live_only:
                    self.cache.put(k, summary)

        sim_missing = [k for k in missing
                       if by_key[k].mode != "estimate"]
        if sim_missing:
            t0 = clock()
            # A live session always executes in-process (tracer/stats
            # need the System); otherwise an installed transport takes
            # every point, and the classic local rules apply without
            # one.
            in_process = live_only or (
                self.transport is None
                and (self.jobs <= 1 or len(sim_missing) <= 1))
            if in_process:
                # run_system records these into the session itself
                # (tracer attach, rich manifests) -- no double noting.
                executed = []
                for k in sim_missing:
                    t_s = clock()
                    summary = _execute_to_summary(by_key[k], k)
                    executed.append(summary)
                    self._note_span(session, rec.record(
                        k, "simulate", "local", t_s - t0,
                        clock() - t_s, t_s - rec.epoch))
            else:
                executed = self._run_pool([(by_key[k], k)
                                           for k in sim_missing],
                                          t0, session)
                if session is not None:
                    for summary in executed:
                        session.note_summary(summary)
            self.exec_wall_s += clock() - t0
            for key, summary in zip(sim_missing, executed):
                summaries[key] = summary
                self.executed += 1
                self.driven_events += summary.driven_events()
                if self.cache is not None and not live_only:
                    self.cache.put(key, summary)
        rec.end_batch(clock() - t_batch)
        return [summaries[key] for key in keys]

    def _run_pool(self, payloads, t_batch, session=None):
        """Fan a batch out through the executor transport.

        Without an installed transport a per-batch local process pool
        is built and torn down here; an installed transport is
        long-lived and owned by whoever installed it (the job server,
        the CLI's ``--server``, a test)."""
        transport = self.transport
        owned = transport is None
        if owned:
            transport = LocalPoolTransport(
                jobs=min(self.jobs, len(payloads)))
        transport.start()
        done_at = {}
        try:
            futures = []
            for payload in payloads:
                fut = transport.submit(*payload)
                fut.add_done_callback(
                    functools.partial(_stamp_done, done_at, payload[1]))
                futures.append(fut)
            results = []
            for (_request, key), fut in zip(payloads, futures):
                summary, meta = fut.result()
                # Span start reconstructed parent-side: completion
                # stamp minus the worker-reported duration.
                ended = done_at.get(key, clock())
                started = ended - meta["exec_s"]
                self._note_span(session, self.recorder.record(
                    key, "simulate", meta["worker"],
                    max(started - t_batch, 0.0), meta["exec_s"],
                    started - self.recorder.epoch))
                results.append(summary)
            return results
        finally:
            if owned:
                transport.stop()


# ---------------------------------------------------------------------------
# ambient engine (how experiment functions find it)
# ---------------------------------------------------------------------------


_current = None


def current_engine():
    """The installed engine, or None when nothing is installed."""
    return _current


@contextmanager
def use_engine(engine):
    """Install ``engine`` as the ambient one for the block (the CLI
    wraps each experiment invocation in this)."""
    global _current
    prev = _current
    _current = engine
    try:
        yield engine
    finally:
        _current = prev


def engine_from_env():
    """Default engine for direct library calls: ``$REPRO_JOBS`` workers
    and a cache only if ``$REPRO_CACHE_DIR`` names one (capped by
    ``$REPRO_CACHE_MAX_BYTES``)."""
    directory = resolve_cache_dir(default=None)
    cache = (RunCache(directory, max_bytes=cache_max_bytes_from_env())
             if directory else None)
    return RunEngine(jobs=None, cache=cache)


def run_grid(requests):
    """Run a batch of points through the ambient engine (building an
    environment-default engine when none is installed)."""
    engine = _current if _current is not None else engine_from_env()
    return engine.run(requests)
