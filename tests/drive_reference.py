"""Shared pieces of the two drive-loop pins (the ``_drive`` pin in
``tests/test_engine.py`` and the run-level pin of whole ``simulate``
runs): the verbatim pre-optimization drive loop, which sends every
event through ``System.access``, and the L1-resident spec on which
``_drive`` retires most events inline.
"""

from repro.cores.perf_model import CoreParams
from repro.workloads.base import CodeSpec, RegionSpec, WorkloadSpec

#: An L1-resident instruction + heap footprint: most events are trivial
#: L1 hits, so the probe retires most of the trace inline.
HOT_SPEC = WorkloadSpec(
    name="l1_resident",
    code=CodeSpec(size_mb=0.125, alpha=1.2),
    regions=(
        RegionSpec("heap", 0.125, "zipf", "private", 1.0,
                   alpha=1.35, write_fraction=0.3),
    ),
    core=CoreParams(),
)


def reference_state(system, traces):
    """The pre-optimization per-core state (flags decoded per event)."""
    out = []
    for tr in traces:
        p = system.cores[tr.core_id].params
        out.append((
            tr.core_id, tr.blocks, tr.flags,
            tr.instr_per_event * p.base_cpi,
            1.0 / p.mlp, p.ifetch_stall_factor,
        ))
    return out


def reference_drive(system, per_core, starts, ends, times, chunk):
    """Verbatim copy of the pre-optimization ``_drive`` inner loop."""
    access = system.access
    positions = list(starts)
    remaining = sum(e - s for s, e in zip(starts, ends))
    while remaining > 0:
        for idx, (core, blocks, flags, cpi_ev, inv_mlp, iff) in \
                enumerate(per_core):
            pos = positions[idx]
            hi = min(pos + chunk, ends[idx])
            if pos >= hi:
                continue
            t = times[core]
            for i in range(pos, hi):
                fl = flags[i]
                lat = access(core, blocks[i], fl & 1, fl & 2, t)
                t += cpi_ev
                if lat:
                    t += lat * iff if fl & 2 else lat * inv_mlp
            times[core] = t
            remaining -= hi - pos
            positions[idx] = hi


def reference_run_drive(system, per_core, starts, ends, times, chunk,
                        sampler=None):
    """Drop-in for ``repro.sim.driver._drive`` that runs
    :func:`reference_drive`, rebuilding each core's reference state
    from the ``(core, cpi_ev, EventLanes)`` state ``run_system`` hands
    it.  It ticks no telemetry sampler."""
    if sampler is not None:
        raise ValueError("the reference loop ticks no telemetry sampler")
    state = []
    for core, cpi_ev, lanes in per_core:
        p = system.cores[core].params
        flags = [w | f for w, f in zip(lanes.writes, lanes.ifetches)]
        state.append((core, lanes.blocks, flags, cpi_ev,
                      1.0 / p.mlp, p.ifetch_stall_factor))
    reference_drive(system, state, starts, ends, times, chunk)
