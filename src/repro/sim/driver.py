"""Run driver: feeds per-core traces through a System and collects a
:class:`RunResult`.

Cores are interleaved in fixed-size chunks (coherence interactions
between cores happen at chunk granularity, which is far finer than any
reuse distance that matters here).  Each core keeps an approximate
local clock -- base CPI plus its exposed stall cycles -- which also
timestamps memory-controller bank occupancy.
"""

import os
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from typing import List, Optional

import numpy as np

from repro.coherence.states import MODIFIED
from repro.cores.perf_model import (
    NUM_LEVELS, LEVEL_NAMES, LEVEL_L1, LEVEL_LLC_LOCAL, LEVEL_LLC_REMOTE,
    LEVEL_DRAM_CACHE, LEVEL_MEMORY)
from repro.obs import manifest as _manifest
from repro.obs import session as _obs_session
from repro.obs.profile import clock
from repro.obs.stats import Distribution
from repro.sim.config import LLC_PRIVATE_VAULT
from repro.sim.system import System

DEFAULT_CHUNK = 200

_chunk_override = None


def default_chunk():
    """Ambient core-interleave chunk: the :func:`use_chunk` override
    when one is installed, else ``$REPRO_CHUNK``, else
    ``DEFAULT_CHUNK``."""
    if _chunk_override is not None:
        return _chunk_override
    raw = os.environ.get("REPRO_CHUNK", "").strip()
    if raw:
        try:
            chunk = int(raw)
        except ValueError:
            raise ValueError("REPRO_CHUNK must be an integer, got %r"
                             % raw) from None
        if chunk < 1:
            raise ValueError("REPRO_CHUNK must be >= 1, got %d" % chunk)
        return chunk
    return DEFAULT_CHUNK


def check_chunk(chunk):
    """Raise ValueError unless ``chunk`` is an int of at least 1 (a
    bool is not a chunk): a smaller chunk never advances the drive
    loop, so the run would hang."""
    if isinstance(chunk, bool) or not isinstance(chunk, int) or chunk < 1:
        raise ValueError("chunk must be an integer >= 1, got %r"
                         % (chunk,))


@contextmanager
def use_chunk(chunk):
    """Install ``chunk`` as the ambient interleave grain for the block
    (the CLI wraps experiments in this for ``--chunk``)."""
    chunk = int(chunk)
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    global _chunk_override
    prev = _chunk_override
    _chunk_override = chunk
    try:
        yield
    finally:
        _chunk_override = prev


class EventLanes:
    """First-class pre-decoded event lanes of one trace: the write and
    ifetch flags split out and the stall-time multiplier
    (ifetch_stall_factor for ifetches, 1/mlp for data) resolved per
    event.

    The decode is vectorized with numpy and done once per
    trace+params; warmup and measure phases -- and any later run over
    the same trace -- reuse it (memoized on the trace by
    :func:`_decoded_lanes`).  The hot loops index plain Python lists
    (``tolist()``), which CPython reads faster than numpy scalars.
    Values are bit-identical to the original per-event ``iff if fl & 2
    else inv_mlp`` decode: both multiplier operands are the same two
    Python floats either way.
    """

    __slots__ = ("blocks", "writes", "ifetches", "lat_mul")

    def __init__(self, trace, params):
        flags = np.asarray(trace.flags, dtype=np.int64)
        inv_mlp = 1.0 / params.mlp
        iff = params.ifetch_stall_factor
        ifetch_bits = flags & 2
        self.blocks = trace.blocks
        self.writes = (flags & 1).tolist()
        self.ifetches = ifetch_bits.tolist()
        self.lat_mul = np.where(ifetch_bits != 0, iff, inv_mlp).tolist()


def _decoded_lanes(trace, params):
    """The trace's :class:`EventLanes`, memoized on the trace object
    (keyed by the CoreParams that shaped them)."""
    cached = getattr(trace, "cached_lanes", None)
    if cached is not None and cached[0] == params:
        return cached[1]
    lanes = EventLanes(trace, params)
    trace.cached_lanes = (params, lanes)
    return lanes


def _per_core_state(system, traces):
    """Per-core hot-loop state: core id, the cycles retired per event
    and the decoded :class:`EventLanes`, so ``_drive`` does no
    per-event flag tests or attribute lookups."""
    out = []
    for tr in traces:
        p = system.cores[tr.core_id].params
        out.append((tr.core_id, tr.instr_per_event * p.base_cpi,
                    _decoded_lanes(tr, p)))
    return out


# silolint: hotpath
def _drive(system, per_core, starts, ends, times, chunk, sampler=None):
    """Interleave cores in ``chunk``-sized slices from per-core start to
    per-core end positions (positions may differ when prewarm prefixes
    have different lengths).

    Trivial L1 hits are retired inline instead of through
    ``System.access``: a resident ifetch, a resident data read and a
    write to a MODIFIED line.  For those, ``access`` only moves the
    line to the MRU position (when the policy reorders on a hit),
    counts an L1 hit and returns 0; the probe does the same, adding
    the hit counts to the core once per chunk (integer counts commute)
    and advancing the clock by ``cpi_ev`` alone, the same addition a
    zero latency leaves, so results are bit-identical.  Every other
    event goes through ``access``.  So does every event of a system
    with a fault injector or prefetchers, which act on every access,
    hits included.  ``system.measuring`` is hoisted per drive: it only
    changes between phases (prefetchers flip it mid-access, but those
    systems never take the probe).

    ``sampler`` is an optional
    :class:`repro.obs.telemetry.TelemetrySampler` ticked once per
    interleave *round* (not per event) with the cumulative driven
    count; disabled telemetry costs one ``is not None`` test per round.
    """
    access = system.access
    measuring = system.measuring
    probe = system.faults is None and system.prefetchers is None
    l1d = system.l1d
    l1i = system.l1i
    cores = system.cores
    positions = list(starts)
    remaining = sum(e - s for s, e in zip(starts, ends))
    total = remaining
    while remaining > 0:
        for idx, (core, cpi_ev, lanes) in enumerate(per_core):
            pos = positions[idx]
            hi = min(pos + chunk, ends[idx])
            if pos >= hi:
                continue
            blocks = lanes.blocks
            writes = lanes.writes
            ifetches = lanes.ifetches
            lat_mul = lanes.lat_mul
            t = times[core]
            dl1 = l1d[core]
            il1 = l1i[core]
            # The probe's set index, block % num_sets, is the cache's
            # own only at index stride 1 (which every L1 is built with).
            if probe and dl1.index_stride == 1 and il1.index_stride == 1:
                dsets = dl1._sets
                dnum = dl1.num_sets
                dreorder = dl1._reorder
                isets = il1._sets
                inum = il1.num_sets
                ireorder = il1._reorder
                dhits = 0
                ihits = 0
                for i in range(pos, hi):
                    block = blocks[i]
                    if ifetches[i]:
                        entries = isets[block % inum]
                        st = entries.get(block)
                        if st is not None:
                            if ireorder:
                                del entries[block]
                                entries[block] = st
                            ihits += 1
                            t += cpi_ev
                            continue
                    else:
                        entries = dsets[block % dnum]
                        st = entries.get(block)
                        if st is not None and (st == MODIFIED
                                               or not writes[i]):
                            if dreorder:
                                del entries[block]
                                entries[block] = st
                            dhits += 1
                            t += cpi_ev
                            continue
                    lat = access(core, block, writes[i], ifetches[i], t)
                    t += cpi_ev
                    if lat:
                        t += lat * lat_mul[i]
                if measuring:
                    counts = cores[core]
                    counts.data_count[LEVEL_L1] += dhits
                    counts.ifetch_count[LEVEL_L1] += ihits
            else:
                for i in range(pos, hi):
                    lat = access(core, blocks[i], writes[i], ifetches[i],
                                 t)
                    t += cpi_ev
                    if lat:
                        t += lat * lat_mul[i]
            times[core] = t
            remaining -= hi - pos
            positions[idx] = hi
        if sampler is not None:
            sampler.tick(total - remaining)


@dataclass
class RunResult:
    """Everything measured in one simulation run.

    ``performance`` is the paper's metric: aggregate application
    instructions per cycle (the sum of per-core IPCs).  The re-scaling
    helpers re-evaluate performance under modified latencies without
    re-simulating (used by Fig. 2 and Fig. 4).
    """

    system: System
    measure_events: int
    core_ids: List[int] = field(default_factory=list)
    # Self-profiling throughput meter: wall-clock seconds spent driving
    # each phase (simulator time, not simulated time).
    warmup_wall_s: float = 0.0
    measure_wall_s: float = 0.0
    warmup_events: int = 0
    #: TelemetrySampler covering the measure phase, when the session
    #: asked for windowed telemetry (None otherwise).
    telemetry: Optional[object] = None

    # -- performance -------------------------------------------------------

    def per_core_ipc(self, level_scale=None, rw_shared_extra_factor=0.0):
        """IPC of each driven core, optionally under re-scaled
        latencies (see CoreModel.stall_cycles)."""
        return [self.system.cores[c].ipc(level_scale,
                                         rw_shared_extra_factor)
                for c in self.core_ids]

    def performance(self, level_scale=None, rw_shared_extra_factor=0.0):
        """Aggregate application instructions per cycle: the sum of
        per-core IPCs (the paper's throughput metric, Sec. VI-C)."""
        return sum(self.per_core_ipc(level_scale, rw_shared_extra_factor))

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

    # -- memory system statistics ------------------------------------------

    def _sum_counts(self, attr):
        totals = [0] * NUM_LEVELS
        for c in self.core_ids:
            counts = getattr(self.system.cores[c], attr)
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
        return sum(self.system.cores[c].instructions for c in self.core_ids)

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

    # -- observability -----------------------------------------------------

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
        (merged histograms; levels with no samples are omitted)."""
        out = {}
        for lvl, name in enumerate(LEVEL_NAMES):
            merged = Distribution("latency", desc=name)
            for c in self.core_ids:
                merged.merge(self.system.cores[c].latency_hist[lvl])
            if merged.count:
                out[name] = merged.value()
        return out

    def stats_snapshot(self):
        """The system's full stats registry as nested dicts."""
        return self.system.stats.snapshot()

    def manifest(self, seed=None, include_stats=False):
        """Run-provenance record: config, inputs, wall clock,
        throughput and latency percentiles (see repro.obs.manifest)."""
        sys_ = self.system
        data = {
            "schema": _manifest.MANIFEST_SCHEMA,
            "git_sha": _manifest.git_sha(),
            "config": asdict(sys_.config),
            "scale": sys_.config.scale,
            "seed": seed,
            "sampling": {"warmup_events": self.warmup_events,
                         "measure_events": self.measure_events},
            "wall_clock": {"warmup_s": self.warmup_wall_s,
                           "measure_s": self.measure_wall_s},
            "throughput": {"driven_events": self.driven_events(),
                           "events_per_sec": self.events_per_sec()},
            "performance": self.performance(),
            "latency_percentiles": self.latency_percentiles(),
        }
        if sys_.config.llc_kind == LLC_PRIVATE_VAULT:
            data["protocol_provenance"] = _manifest.protocol_provenance()
        if sys_.tracer is not None:
            data["trace"] = sys_.tracer.summary()
        if sys_.faults is not None:
            data["faults"] = sys_.faults.describe()
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry.summary()
        if include_stats:
            data["stats"] = self.stats_snapshot()
        return data


def run_system(system, traces, warmup_events, measure_events,
               chunk=None, seed=None):
    """Warm up (prewarm prefix + ``warmup_events``), reset statistics,
    measure ``measure_events`` per core; returns a RunResult.

    ``chunk`` is the core-interleave grain; None resolves the ambient
    default (:func:`default_chunk`).  Both phases are wall-clock timed
    (the simulator's self-profiling throughput meter).  If an
    observation session is open (CLI ``--stats/--trace/--manifest``),
    a tracer is attached before driving and a provenance record is
    deposited after.
    """
    if chunk is None:
        chunk = default_chunk()
    check_chunk(chunk)
    warm_ends = []
    for tr in traces:
        end = tr.prewarm_events + warmup_events
        if len(tr) < end + measure_events:
            raise ValueError("trace for core %d has %d events, need %d"
                             % (tr.core_id, len(tr),
                                end + measure_events))
        warm_ends.append(end)
    session = _obs_session.current_session()
    profiler = session.profiler if session is not None else None
    telemetry_every = (session.telemetry_every if session is not None
                       else 0)
    if session is not None:
        session.attach(system)
    if profiler is not None:
        from repro.obs.profile import instrument
        instrument(profiler, system)
    sampler = None
    if telemetry_every > 0:
        # built here (the registry walk is the expensive part) and
        # re-armed after the warmup-boundary reset, so the timed
        # measure window only pays the per-window sampling cost
        from repro.obs.telemetry import TelemetrySampler
        sampler = TelemetrySampler(system, telemetry_every)
    times = [0.0] * system.num_cores
    per_core = _per_core_state(system, traces)
    system.measuring = False
    t0 = clock()
    with (profiler.region("warmup") if profiler is not None
          else nullcontext()):
        _drive(system, per_core, [0] * len(traces), warm_ends, times,
               chunk)
    t1 = clock()
    system.reset_stats()
    system.measuring = True
    if sampler is not None:
        sampler.start()
    with (profiler.region("measure") if profiler is not None
          else nullcontext()):
        _drive(system, per_core, warm_ends,
               [e + measure_events for e in warm_ends], times, chunk,
               sampler)
    t2 = clock()
    if sampler is not None:
        sampler.finish(measure_events * len(traces))
    for tr in traces:
        system.cores[tr.core_id].retire(
            int(measure_events * tr.instr_per_event))
    result = RunResult(system=system, measure_events=measure_events,
                       core_ids=[tr.core_id for tr in traces],
                       warmup_wall_s=t1 - t0, measure_wall_s=t2 - t1,
                       warmup_events=warmup_events, telemetry=sampler)
    if profiler is not None:
        profiler.add_events(result.driven_events())
    if session is not None:
        session.note_run(result, seed=seed)
    return result


def simulate(config, spec, plan, core_params=None, seed=0,
             track_sharing=False, chunk=None, faults=None):
    """Convenience wrapper: build the system, generate traces for a
    homogeneous workload, run, and return the RunResult.  ``faults``
    is an optional :class:`repro.faults.FaultPlan`; inactive plans
    attach nothing (bit-identical to fault-free)."""
    from repro.workloads.generator import generate_traces

    session = _obs_session.current_session()
    profiler = session.profiler if session is not None else None
    with (profiler.region("setup") if profiler is not None
          else nullcontext()):
        n = config.num_cores
        if core_params is None:
            core_params = [spec.core] * n
        system = System(config, core_params)
        system.track_sharing = track_sharing
        if faults is not None and faults.active():
            from repro.faults.injector import FaultInjector
            system.attach_faults(FaultInjector(faults, n))
        traces, layout = generate_traces(
            spec, num_cores=n, events_per_core=plan.total_events,
            scale=config.scale, seed=seed)
        system.rw_shared_range = layout.rw_shared_range
    return run_system(system, traces, plan.warmup_events,
                      plan.measure_events, chunk, seed=seed)
