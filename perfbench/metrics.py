"""The benchmark's metric table.

Names, units, better directions and each workload's one-line reason
live in ``BENCHMARK.json`` at the checkout root; this module loads them
and adds only what that file's schema has no room for: what each
end-to-end metric measures, and, for each per-layer metric, the
end-to-end metric and workload it should move.
"""

import json
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load():
    """The checkout's ``BENCHMARK.json``."""
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def units(bench, kind):
    """``{metric: unit}`` of ``bench[kind]``: every ``"end_to_end"``
    metric is reported by every workload with tracing off, every
    ``"per_layer"`` metric by every traced run (0 where a layer does no
    work on that workload)."""
    return {m["name"]: m["unit"] for m in bench[kind]}


#: What each end-to-end metric measures.  An operation is a grid point
#: (simulate) or a request (serve-*).  Times and rates are in
#: reference-host seconds (common.HostClock); the report prints the raw
#: measurements too.
DEFINITIONS = {
    "setup_s": "median of repeated set-ups: imports and engine "
               "construction (simulate), or server start until READY "
               "plus warm-pool resolution (serve-*)",
    "wall_s": "duration of the timed phase, a fixed amount of work",
    "ops_per_s": "operations completed per second of wall_s",
    "events_per_s": "driven events of the answered points per second "
                    "of wall_s (simulated by the program for simulate, "
                    "estimated for serve-*)",
    "peak_rss_mb": "peak RSS of the process running the program: the "
                   "benchmark process for simulate, the server's VmHWM "
                   "for serve-*",
}

ORGS = ("shared", "silo")

#: Layers whose self time the sampler measures under System.access.
EVENT_LAYERS = ("sim.driver", "sim.fastpath", "sim.system", "caches",
                "coherence", "noc", "memory", "cores")

#: (per-layer metric, RunSummary accessor): simulated work per point.
WORK_COUNTS = (
    ("caches.l1_hits", "level", 0),
    ("caches.llc_local_hits", "level", 2),
    ("caches.llc_remote_hits", "level", 3),
    ("coherence.directory_lookups", "counter", "directory_lookups"),
    ("coherence.invalidations", "counter", "invalidations"),
    ("coherence.remote_forwards", "counter", "remote_forwards"),
    ("noc.link_traversals", "counter", "link_traversals"),
    ("memory.accesses", "counter", "memory_accesses"),
)

SERVER_COUNTS = ("submitted", "memo_hits", "deduped_inflight",
                 "completed", "errors", "rejected", "batches_dispatched",
                 "dedup_ratio")


def _moves():
    sim_wall = ("simulate", "wall_s")
    sim_eps = ("simulate", "events_per_s")
    warm_ops = ("serve-warm", "ops_per_s")
    cold_ops = ("serve-cold", "ops_per_s")
    cold_wall = ("serve-cold", "wall_s")
    rows = [
        ("experiments.self_s", sim_wall),
        ("workloads.generate_s", sim_wall),
        ("workloads.events", None),
        ("sim.system.build_s", sim_wall),
        ("sim.driver.warmup_s", sim_eps),
        ("sim.driver.measure_s", sim_eps),
        ("sim.engine.summarize_s", sim_eps),
        ("energy.breakdown_s", sim_wall),
        ("sim.fastpath.bails", sim_eps),
    ]
    for org in ORGS:
        rows.append(("sim.engine.events_per_s." + org, sim_eps))
        rows.append(("sim.fastpath.retired_fraction." + org, sim_eps))
        rows += [("%s.self_s.%s" % (layer, org), sim_eps)
                 for layer in EVENT_LAYERS]
        rows += [("%s.%s" % (name, org), None)
                 for name, _kind, _key in WORK_COUNTS]
    rows += [
        ("serve.proto.read_s", warm_ops),
        ("serve.proto.parse_s", warm_ops),
        ("serve.proto.render_s", warm_ops),
        ("serve.proto.response_bytes", warm_ops),
        ("sim.engine.key_s", warm_ops),
        ("serve.client.rtt_p50_ms", warm_ops),
        ("serve.client.rtt_p90_ms", cold_wall),
        ("serve.server.cpu_ms_per_req", warm_ops),
        ("serve.client.cpu_ms_per_req", warm_ops),
        ("serve.server.queue_wait_s", cold_wall),
        ("serve.server.batch_size_mean", cold_wall),
        ("analytic.estimate_s", cold_ops),
        ("analytic.estimates", cold_ops),
        ("analytic.ms_per_point", cold_ops),
        ("sim.engine.cache_get_s", cold_ops),
        ("sim.engine.cache_put_s", cold_ops),
        ("sim.engine.cache_misses", cold_ops),
        ("sim.engine.cache_pruned_entries", cold_ops),
        ("sim.engine.self_s", cold_ops),
        ("trace.overhead", None),
    ]
    rows += [("serve.server." + name, cold_ops) for name in SERVER_COUNTS]
    return dict(rows)


#: per-layer metric -> the (workload, end-to-end metric) it should
#: move, or None for counts a speed-only change must leave identical
#: and for the tracing overhead itself.
MOVES = _moves()
