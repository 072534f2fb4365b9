"""Run summaries: the one result model of a finished point.

A :class:`RunSummary` is the measurement window of one run in plain,
picklable, JSON-able data -- per-core per-level latency sums and
counts, retired instructions and RW-shared splits, one latency
histogram per level merged over the driven cores, system counters and
the energy breakdown -- and the only place the
run's metrics are evaluated: IPC (base CPI plus the stall each service
level exposes), performance under re-scaled latencies (Fig. 2, Fig. 4)
or RW-shared multipliers, the LLC breakdown, MPKI, latency percentiles
and the provenance manifest.

Every path to a result ends here.  ``run_system`` snapshots the live
``System`` once into a :class:`~repro.sim.driver.RunResult` (a
``RunSummary`` that also holds the live system); the run engine
detaches the plain ``RunSummary`` it caches, pools and serves; the
analytic estimator builds an ``EstimateSummary`` subclass.  So a
re-evaluated metric is the same arithmetic over the same numbers
whichever way the point was resolved.

This module imports neither the engine nor the simulator, so the
driver, the estimator and the job server's wire format can share it.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cores.perf_model import (
    NUM_LEVELS, LEVEL_NAMES, LEVEL_LLC_LOCAL, LEVEL_LLC_REMOTE,
    LEVEL_DRAM_CACHE, LEVEL_MEMORY)
from repro.energy.model import EnergyModel
from repro.fields import plain
from repro.obs import manifest as _manifest
from repro.obs.stats import Distribution
from repro.sim.config import LLC_PRIVATE_VAULT

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
#: /6: a summary keeps one latency histogram per service level, merged
#: over the driven cores, in place of one per core and level.
ENGINE_SCHEMA = "silo-repro-runsummary/6"


@dataclass
class CoreSummary:
    """One driven core's measurement window, detached from the live
    :class:`~repro.cores.perf_model.CoreModel`, and its performance
    under the first-order interval model (see that module)."""

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

    @classmethod
    def snapshot(cls, core):
        """A copy of a live CoreModel's counters."""
        p = core.params
        return cls(
            core_id=core.core_id,
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
        )

    def stall_cycles(self, level_scale=None, rw_shared_extra_factor=0.0):
        """Total stall cycles.

        ``level_scale`` optionally multiplies the recorded latency of
        each service level (a 6-element sequence), which re-evaluates
        the run under different LLC/memory latencies.
        ``rw_shared_extra_factor`` adds that multiple of the RW-shared
        latency sum on top (e.g. 1.0 doubles RW-shared block latency,
        3.0 quadruples it -- Fig. 4).
        """
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
        """Core cycles: base CPI times instructions plus the stalls."""
        return (self.instructions * self.base_cpi
                + self.stall_cycles(level_scale, rw_shared_extra_factor))

    def ipc(self, level_scale=None, rw_shared_extra_factor=0.0):
        """Instructions per cycle (0 for a core that retired nothing)."""
        cyc = self.cycles(level_scale, rw_shared_extra_factor)
        return self.instructions / cyc if cyc > 0 else 0.0


def _merged_hist(dists):
    """The full state of ``dists`` merged in order: {"max_bucket",
    "buckets", "count", "total", "min", "max"}."""
    merged = Distribution()
    for dist in dists:
        merged.merge(dist)
    return {"max_bucket": merged.max_bucket,
            "buckets": merged.buckets,
            "count": merged.count, "total": merged.total,
            "min": merged.min, "max": merged.max}


def _hist_restore(state):
    dist = Distribution(max_bucket=state["max_bucket"])
    dist.buckets = list(state["buckets"])
    dist.count = state["count"]
    dist.total = state["total"]
    dist.min = state["min"]
    dist.max = state["max"]
    return dist


@dataclass
class RunSummary:
    """Everything measured in one run, and everything an experiment
    can ask of it, in plain picklable/JSON-able data.

    ``performance`` is the paper's metric: aggregate application
    instructions per cycle (the sum of per-core IPCs).  The re-scaling
    helpers re-evaluate performance under modified latencies without
    re-simulating (used by Fig. 2 and Fig. 4).
    """

    schema: str
    request_key: str
    config: dict                  # asdict(HierarchyConfig)
    seed: Optional[int]
    core_ids: List[int]
    warmup_events: int
    measure_events: int
    # Self-profiling throughput meter: wall-clock seconds spent driving
    # each phase (simulator time, not simulated time).
    warmup_wall_s: float
    measure_wall_s: float
    cores: List[CoreSummary]
    #: Per service level: the exposed-latency histogram state of the
    #: driven cores merged in ``core_ids`` order (see
    #: :func:`_merged_hist`).
    latency_hist: List[dict]
    #: ``System.counters()`` of the measurement window (the faults'
    #: ``accesses`` and vault transitions span the whole run).
    counters: dict
    #: (reads, writes_nosharing, writes_rwsharing) when the request
    #: asked for sharing classification, else None.
    sharing: Optional[Tuple[int, int, int]]
    #: Default EnergyModel breakdown of the window (Table III units).
    energy: dict
    #: How the summary was produced: "simulate" here; the analytic
    #: backend's EstimateSummary subclass carries "estimate".
    mode: str = "simulate"

    @classmethod
    def snapshot(cls, system, core_ids, warmup_events, measure_events,
                 warmup_wall_s, measure_wall_s, seed=None):
        """The measurement window of a live ``System`` over the driven
        ``core_ids``: every list copied, so driving the system further
        leaves the snapshot as it was."""
        live = [system.cores[c] for c in core_ids]
        sharing = (system.sharing_breakdown() if system.track_sharing
                   else None)
        return cls(
            schema=ENGINE_SCHEMA,
            request_key="",
            config=plain(system.config),
            seed=seed,
            core_ids=list(core_ids),
            warmup_events=warmup_events,
            measure_events=measure_events,
            warmup_wall_s=warmup_wall_s,
            measure_wall_s=measure_wall_s,
            cores=[CoreSummary.snapshot(core) for core in live],
            latency_hist=[_merged_hist(core.latency_hist[lvl]
                                       for core in live)
                          for lvl in range(NUM_LEVELS)],
            counters=system.counters(),
            sharing=sharing,
            energy=EnergyModel().breakdown(system),
        )

    # -- performance ---------------------------------------------------

    def per_core_ipc(self, level_scale=None, rw_shared_extra_factor=0.0):
        """IPC of each driven core, optionally under re-scaled
        latencies (see CoreSummary.stall_cycles)."""
        return [c.ipc(level_scale, rw_shared_extra_factor)
                for c in self.cores]

    def performance(self, level_scale=None, rw_shared_extra_factor=0.0):
        """Aggregate application instructions per cycle: the sum of
        per-core IPCs (the paper's throughput metric, Sec. VI-C)."""
        return sum(self.per_core_ipc(level_scale,
                                     rw_shared_extra_factor))

    def performance_with_llc_scale(self, factor):
        """Performance with every LLC access (local and remote) taking
        ``factor`` times its measured latency (Fig. 2 sweeps)."""
        scale = [1.0] * NUM_LEVELS
        scale[LEVEL_LLC_LOCAL] = factor
        scale[LEVEL_LLC_REMOTE] = factor
        return self.performance(level_scale=scale)

    def performance_with_rw_multiplier(self, multiplier):
        """Performance with RW-shared block accesses taking
        ``multiplier`` times their latency (Fig. 4)."""
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
        """Accesses satisfied at each level (ifetch + data)."""
        d = self._sum_counts("data_count")
        i = self._sum_counts("ifetch_count")
        return [d[lvl] + i[lvl] for lvl in range(NUM_LEVELS)]

    def instructions(self):
        """Instructions retired across the driven cores."""
        return sum(c.instructions for c in self.cores)

    def llc_breakdown(self):
        """Fig. 11: (local hits, remote hits, off-chip misses) among
        accesses that reached the LLC level."""
        counts = self.level_counts()
        local = counts[LEVEL_LLC_LOCAL]
        remote = counts[LEVEL_LLC_REMOTE]
        miss = counts[LEVEL_DRAM_CACHE] + counts[LEVEL_MEMORY]
        return local, remote, miss

    def llc_mpki(self):
        """Off-chip misses per kilo-instruction."""
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
        """Average LLC power over ``seconds`` (static + dynamic;
        Sec. VII-C notes SILO's stays under 2.5 W)."""
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        return (self.energy["llc_static_w"]
                + self.energy["llc_dynamic_nj"] * 1e-9 / seconds)

    # -- observability -------------------------------------------------

    def driven_events(self):
        """References driven through the system during measurement."""
        return self.measure_events * len(self.core_ids)

    def events_per_sec(self):
        """Simulator throughput during the measurement phase."""
        if self.measure_wall_s <= 0:
            return 0.0
        return self.driven_events() / self.measure_wall_s

    def latency_percentiles(self):
        """Per-level exposed-latency percentiles over the driven cores
        (levels with no samples are omitted)."""
        return {name: _hist_restore(state).value()
                for name, state in zip(LEVEL_NAMES, self.latency_hist)
                if state["count"]}

    def manifest(self):
        """Run-provenance record: config, inputs, wall clock,
        throughput and latency percentiles (see repro.obs.manifest)."""
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
        """JSON-native dict (``from_dict`` round-trips it exactly): the
        dict ``dataclasses.asdict`` gives, built by
        :func:`repro.fields.plain`."""
        return plain(self)

    @classmethod
    def from_dict(cls, data):
        """Rebuild a summary (of this class) from :meth:`to_dict`."""
        data = dict(data)
        data["cores"] = [CoreSummary(**c) for c in data["cores"]]
        if data.get("sharing") is not None:
            data["sharing"] = tuple(data["sharing"])
        return cls(**data)
