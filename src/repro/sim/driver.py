"""Run driver: feeds per-core traces through a System and collects a
:class:`RunResult` -- the run's :class:`~repro.sim.summary.RunSummary`
plus the live system.

Cores are interleaved in fixed-size chunks (coherence interactions
between cores happen at chunk granularity, which is far finer than any
reuse distance that matters here).  Each core keeps an approximate
local clock -- base CPI plus its exposed stall cycles -- which also
timestamps memory-controller bank occupancy.
"""

from contextlib import contextmanager

from repro.coherence.states import MODIFIED
from repro.cores.perf_model import LEVEL_L1
from repro.obs import session as _obs_session
from repro.obs.profile import clock
from repro.sim.summary import RunSummary
from repro.workloads.generator import FLAG_IFETCH, FLAG_WRITE

DEFAULT_CHUNK = 200

_chunk_override = None


def default_chunk():
    """Ambient core-interleave chunk: the :func:`use_chunk` override
    when one is installed, else ``DEFAULT_CHUNK``."""
    if _chunk_override is not None:
        return _chunk_override
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
    check_chunk(chunk)
    global _chunk_override
    prev = _chunk_override
    _chunk_override = chunk
    try:
        yield
    finally:
        _chunk_override = prev


def _per_core_state(system, traces):
    """Per-core hot-loop state: core id, the cycles retired per event,
    the trace's own ``blocks`` and ``flags`` lists, and the two stall
    multipliers (``ifetch_stall_factor`` for an ifetch, ``1/mlp`` for
    a data access), so ``_drive`` does no per-event attribute lookups.
    The trace is read, never copied or written."""
    out = []
    for tr in traces:
        p = system.cores[tr.core_id].params
        out.append((tr.core_id, tr.instr_per_event * p.base_cpi,
                    tr.blocks, tr.flags, p.ifetch_stall_factor,
                    1.0 / p.mlp))
    return out


# silolint: hotpath
def _drive(system, per_core, starts, ends, times, chunk, sampler=None):
    """Interleave cores in ``chunk``-sized slices from per-core start to
    per-core end positions (positions may differ when prewarm prefixes
    have different lengths).

    Each event's block and flag word are read together from the
    chunk's slices of the trace, and the flag word is decoded with the
    reference loop's bit tests (``FLAG_IFETCH``, ``FLAG_WRITE``; a word
    may carry both); a miss's stall is ``lat * iff`` for an ifetch or
    ``lat * inv_mlp`` for a data access, the same float operations in
    the same order.

    The loop probes the core's L1 set itself.  A trivial hit -- a
    resident ifetch, a resident data read, a write to a MODIFIED line
    -- is retired inline: for those, ``System.access`` only moves the
    line to the MRU position, counts an L1 hit and returns 0; the probe
    does the same, adding the hit counts to the core once per chunk
    (integer counts commute) and advancing the clock by ``cpi_ev``
    alone, the same addition a zero latency leaves, so results are
    bit-identical.  A miss goes straight to the organization's
    ``_miss`` (after setting ``system.now``, as ``access`` does), which
    fills the L1 and records the latency.  Only a store to an S/E/O
    line, which needs the write upgrade, calls ``access``.  So does
    every event of a system with a fault injector or prefetchers,
    which act on every access, hits included.  ``system.measuring`` is
    hoisted per drive: it only changes between phases (prefetchers
    flip it mid-access, but those systems never take the probe).

    ``sampler`` is an optional
    :class:`repro.obs.telemetry.TelemetrySampler` ticked once per
    interleave *round* (not per event) with the cumulative driven
    count; disabled telemetry costs one ``is not None`` test per round.
    """
    access = system.access
    miss = system._miss
    measuring = system.measuring
    probe = system.faults is None and system.prefetchers is None
    l1d = system.l1d
    l1i = system.l1i
    cores = system.cores
    positions = list(starts)
    remaining = sum(e - s for s, e in zip(starts, ends))
    total = remaining
    while remaining > 0:
        for idx, (core, cpi_ev, blocks, flags, iff, inv_mlp) in \
                enumerate(per_core):
            pos = positions[idx]
            hi = min(pos + chunk, ends[idx])
            if pos >= hi:
                continue
            t = times[core]
            dl1 = l1d[core]
            il1 = l1i[core]
            events = zip(blocks[pos:hi], flags[pos:hi])
            # The probe's set index, block % num_sets, is the cache's
            # own only at index stride 1 (which every L1 is built with).
            if probe and dl1.index_stride == 1 and il1.index_stride == 1:
                dsets = dl1._sets
                dnum = dl1.num_sets
                isets = il1._sets
                inum = il1.num_sets
                dhits = 0
                ihits = 0
                for block, fl in events:
                    if fl & FLAG_IFETCH:
                        entries = isets[block % inum]
                        st = entries.get(block)
                        if st is not None:
                            del entries[block]
                            entries[block] = st
                            ihits += 1
                            t += cpi_ev
                            continue
                        system.now = t
                        lat = miss(core, block, False, False, t)
                        t += cpi_ev
                        if lat:
                            t += lat * iff
                        continue
                    entries = dsets[block % dnum]
                    st = entries.get(block)
                    if st is None:
                        system.now = t
                        lat = miss(core, block, fl & FLAG_WRITE, True, t)
                        t += cpi_ev
                        if lat:
                            t += lat * inv_mlp
                        continue
                    if st == MODIFIED or not fl & FLAG_WRITE:
                        del entries[block]
                        entries[block] = st
                        dhits += 1
                    else:
                        # a store to an S/E/O line: the write upgrade,
                        # a hit that returns 0
                        access(core, block, FLAG_WRITE, 0, t)
                    t += cpi_ev
                if measuring:
                    counts = cores[core]
                    counts.data_count[LEVEL_L1] += dhits
                    counts.ifetch_count[LEVEL_L1] += ihits
            else:
                for block, fl in events:
                    lat = access(core, block, fl & FLAG_WRITE,
                                 fl & FLAG_IFETCH, t)
                    t += cpi_ev
                    if lat:
                        if fl & FLAG_IFETCH:
                            t += lat * iff
                        else:
                            t += lat * inv_mlp
            times[core] = t
            remaining -= hi - pos
            positions[idx] = hi
        if sampler is not None:
            sampler.tick(total - remaining)


class RunResult(RunSummary):
    """A finished simulation run: its :class:`RunSummary` (every
    metric, evaluated there) plus the live ``system`` it ran on and the
    measure phase's ``telemetry`` sampler, when the session asked for
    windowed telemetry.  Those two are plain attributes, not dataclass
    fields, so ``to_dict``, equality, the run cache and the wire never
    see them; the engine detaches the plain summary with
    :func:`repro.sim.engine.summarize`.
    """

    system = None
    telemetry = None

    def manifest(self):
        """Run-provenance record: the summary's manifest plus the live
        run's tracer, fault-injector and telemetry records."""
        data = super().manifest()
        sys_ = self.system
        if sys_.tracer is not None:
            data["trace"] = sys_.tracer.summary()
        if sys_.faults is not None:
            data["faults"] = sys_.faults.describe()
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry.summary()
        return data


def run_system(system, traces, warmup_events, measure_events,
               chunk=None, seed=None):
    """Warm up (prewarm prefix + ``warmup_events``), reset statistics,
    measure ``measure_events`` per core; returns a RunResult, the
    window snapshotted once after the measure phase, recording
    ``seed``.

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
    telemetry_every = (session.telemetry_every if session is not None
                       else 0)
    if session is not None:
        session.attach(system)
    times = [0.0] * system.num_cores
    per_core = _per_core_state(system, traces)
    system.measuring = False
    t0 = clock()
    _drive(system, per_core, [0] * len(traces), warm_ends, times, chunk)
    t1 = clock()
    system.reset_stats()
    system.measuring = True
    sampler = None
    if telemetry_every > 0:
        # built after the warmup-boundary reset: its first window
        # differences the machine's counters from zero
        from repro.obs.telemetry import TelemetrySampler
        sampler = TelemetrySampler(system, telemetry_every)
    _drive(system, per_core, warm_ends,
           [e + measure_events for e in warm_ends], times, chunk, sampler)
    t2 = clock()
    if sampler is not None:
        sampler.finish(measure_events * len(traces))
    for tr in traces:
        system.cores[tr.core_id].retire(
            int(measure_events * tr.instr_per_event))
    result = RunResult.snapshot(
        system, [tr.core_id for tr in traces], warmup_events,
        measure_events, t1 - t0, t2 - t1, seed=seed)
    result.system = system
    result.telemetry = sampler
    if session is not None:
        session.note_run(result)
    return result


def simulate(config, spec, plan, seed=0, track_sharing=False, chunk=None,
             faults=None):
    """Convenience wrapper: simulate ``spec`` on every core of
    ``config`` and return the RunResult -- the
    :meth:`~repro.sim.engine.RunRequest.point` request's
    :func:`~repro.sim.engine.execute_request`, so ``chunk`` and
    ``faults`` default to the ambient settings like every other point.
    ``faults`` is an optional :class:`repro.faults.FaultPlan`; inactive
    plans attach nothing (bit-identical to fault-free)."""
    from repro.sim.engine import RunRequest, execute_request

    return execute_request(RunRequest.point(
        config, spec, plan, seed, track_sharing=track_sharing,
        chunk=chunk, faults=faults))
