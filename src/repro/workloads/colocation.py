"""Heterogeneous deployments: different workloads on different cores.

Supports the SPEC'06 multi-programmed mixes (Fig. 15) and the
performance-isolation study (Table VI: Web Search on 8 cores colocated
with mcf on the other 8).  Each workload gets a disjoint slice of the
block address space so that colocated applications never share data --
they contend only for shared hardware (the LLC, the NOC and memory),
which is exactly the contention the study measures.
"""

from repro.workloads import generator

# Pad between workloads' address spaces so that region boundaries of
# different workloads never touch (also keeps bank-interleave patterns
# of different apps decorrelated).
_ADDRESS_PAD_BLOCKS = 1 << 20


def generate_colocation_traces(assignments, events_per_core, scale=64,
                               seed=0):
    """Generate traces for a heterogeneous deployment.

    Parameters
    ----------
    assignments:
        List of ``(spec, core_ids)`` pairs; ``core_ids`` are the cores
        running that workload.  Core id sets must be disjoint.
    events_per_core, scale, seed:
        As for :func:`repro.workloads.generator.generate_traces`.

    Returns
    -------
    (traces, layouts):
        ``traces`` ordered by core id covering all assigned cores;
        ``layouts`` is a list of (spec_name, TraceLayout) in assignment
        order.

    The whole result is one trace set in the generator's one-entry
    memo (:func:`repro.workloads.generator.held`), keyed by every
    argument: consecutive systems on one mix share it, and it drops
    whatever set was held before.
    """
    assignments = tuple((spec, tuple(core_ids))
                        for spec, core_ids in assignments)
    seen = set()
    for _, core_ids in assignments:
        for c in core_ids:
            if c in seen:
                raise ValueError("core %d assigned to two workloads" % c)
            seen.add(c)
    key = ("colocation", assignments, events_per_core, scale, seed)
    return generator.held(key, lambda: _generate(
        assignments, events_per_core, scale, seed))


def _generate(assignments, events_per_core, scale, seed):
    traces_by_core = {}
    layouts = []
    base = 0
    for i, (spec, core_ids) in enumerate(assignments):
        traces, layout = generator._generate_traces(
            spec, len(core_ids), events_per_core, scale, seed + i, base,
            list(core_ids))
        layouts.append((spec.name, layout))
        base += layout.total_blocks + _ADDRESS_PAD_BLOCKS
        for t in traces:
            traces_by_core[t.core_id] = t
    ordered = [traces_by_core[c] for c in sorted(traces_by_core)]
    return ordered, layouts
