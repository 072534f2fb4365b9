"""Phase-resolved telemetry: a windowed sampler over the stats registry.

End-of-run totals hide how a run *evolves*: cold-cache warm-in, working
-set shifts, a fault burst.  The :class:`TelemetrySampler` closes that
gap by snapshotting the existing stats registry every N driven events
(``--telemetry N``) and recording per-window *deltas*: per-core hit
rates and exposed latency, NoC hops per event, memory traffic, fault
events, and a per-vault occupancy/traffic heatmap series.  A greedy
mean-shift change-point pass over the windowed miss rate segments the
series into phases.

Sampling happens at core-interleave *round* granularity inside
``_drive`` (one ``is not None`` check per round when enabled, nothing
when disabled), only during the measurement phase, and only ever
*reads* simulator state -- enabling telemetry never changes simulated
results (tests/test_obs_inert.py).

Three exporters serialize a session's samplers: :func:`export_jsonl`
(one JSON object per window), :func:`export_prometheus` (text
exposition format, latest-window gauges) and
:func:`export_chrome_trace` (``chrome://tracing`` JSON that opens
directly in Perfetto, with counter tracks per window and one span per
detected phase).
"""

import json

from repro.obs.profile import clock
from repro.obs.stats import KIND_COUNTER

#: Default miss-rate deviation (absolute) that opens a new phase.
PHASE_ABS_TOL = 0.03
#: Default miss-rate deviation relative to the running phase mean.
PHASE_REL_TOL = 0.5


def counter_values(root):
    """Flat ``{dotted.path: value}`` view of every counter-kind leaf in
    a stats registry (formulas and distributions are derived state and
    are excluded -- deltas are only meaningful for counters)."""
    out = {}
    for path, stat in root.walk():
        if stat.kind == KIND_COUNTER:
            v = stat.value()
            if isinstance(v, (int, float)):
                out[path] = v
    return out


def detect_phases(values, abs_tol=PHASE_ABS_TOL, rel_tol=PHASE_REL_TOL):
    """Greedy mean-shift change-point segmentation.

    Walks the windowed series keeping a running mean of the current
    phase; a window deviating from that mean by more than
    ``max(abs_tol, rel_tol * |mean|)`` closes the phase and opens a new
    one.  Returns ``[{"start", "end", "windows", "mean"}, ...]`` with
    ``end`` exclusive.  O(n), deterministic, and tolerant of noise as
    long as real shifts exceed the tolerance band.
    """
    if not values:
        return []
    phases = []
    start = 0
    total = values[0]
    n = 1
    for i in range(1, len(values)):
        mean = total / n
        if abs(values[i] - mean) > max(abs_tol, rel_tol * abs(mean)):
            phases.append({"start": start, "end": i, "windows": i - start,
                           "mean": mean})
            start = i
            total = values[i]
            n = 1
        else:
            total += values[i]
            n += 1
    phases.append({"start": start, "end": len(values),
                   "windows": len(values) - start, "mean": total / n})
    return phases


class TelemetrySampler:
    """Windowed delta sampler over one System's stats registry.

    ``run_system`` constructs the sampler before the warmup drive (the
    registry walk is the expensive part and must stay out of the timed
    measure window) and re-arms it with :meth:`start` right after the
    warmup-boundary stats reset.  ``_drive`` calls :meth:`tick` once
    per interleave round and the sampler closes a window whenever the
    driven-event count crosses the next interval boundary.
    :meth:`finish` closes the final partial window and runs phase
    detection.
    """

    def __init__(self, system, interval_events):
        if interval_events < 1:
            raise ValueError("telemetry interval must be >= 1, got %r"
                             % (interval_events,))
        self.system = system
        self.interval = int(interval_events)
        # the registry's shape is frozen once the System is built, so
        # the walk happens once here; each sample only re-reads values
        self._leaves = [(path, stat)
                        for path, stat in system.stats.walk()
                        if stat.kind == KIND_COUNTER
                        and isinstance(stat.value(), (int, float))]
        self.start()

    def start(self):
        """(Re)arm: baseline counters, event count and wall clock.
        Cheap (one value read per counter leaf); called after the
        warmup-boundary stats reset so the first window's deltas start
        from zero."""
        self.windows = []
        self.phases = []
        self.finished = False
        self._next_at = self.interval
        self._last = self._snapshot()
        self._last_events = 0
        self._t0 = clock()
        self._last_t = self._t0

    # -- sampling -------------------------------------------------------

    def _snapshot(self):
        """Current counter values over the leaves captured at init."""
        return {path: stat.value() for path, stat in self._leaves}

    def tick(self, driven):
        """Close a window if ``driven`` (cumulative events this drive)
        crossed the next interval boundary.  Called once per interleave
        round from ``_drive``; cheap when no boundary was crossed."""
        if driven >= self._next_at:
            self._sample(driven)
            while self._next_at <= driven:
                self._next_at += self.interval

    def _sample(self, driven):
        # Imported here, not at module top: perf_model itself imports
        # repro.obs.stats, and this module is re-exported from the
        # repro.obs package __init__ -- a module-level import would
        # cycle when perf_model is the first thing imported.
        from repro.cores.perf_model import LEVEL_NAMES
        system = self.system
        now = clock()
        cur = self._snapshot()
        last = self._last
        delta = {k: v - last.get(k, 0) for k, v in cur.items()}
        wevents = driven - self._last_events

        per_core = []
        vault_traffic = []
        tot_events = 0
        tot_l1 = 0
        tot_data = 0
        tot_data_l1 = 0
        tot_lat = 0.0
        for c in range(system.num_cores):
            prefix = "system.cores.core%d." % c
            events = 0
            l1 = 0
            data = 0
            data_l1 = 0
            lat = 0.0
            local = 0
            for lvl, name in enumerate(LEVEL_NAMES):
                g = prefix + name.lower() + "."
                d = delta.get(g + "data_count", 0)
                i = delta.get(g + "ifetch_count", 0)
                events += d + i
                data += d
                lat += delta.get(g + "data_latency", 0.0)
                if lvl == 0:
                    l1 = d + i
                    data_l1 = d
                elif name == "LLC_LOCAL":
                    local = d + i
            misses = events - l1
            data_misses = data - data_l1
            per_core.append({
                "events": events,
                "l1_hit_rate": l1 / events if events else 0.0,
                "miss_rate": misses / events if events else 0.0,
                "mean_exposed_latency": (lat / data_misses
                                         if data_misses else 0.0),
            })
            vault_traffic.append(local)
            tot_events += events
            tot_l1 += l1
            tot_data += data
            tot_data_l1 += data_l1
            tot_lat += lat

        misses = tot_events - tot_l1
        data_misses = tot_data - tot_data_l1
        fault_events = sum(v for k, v in delta.items()
                           if k.startswith("system.faults."))
        self.windows.append({
            "index": len(self.windows),
            "events": driven,
            "window_events": wevents,
            "wall_s": now - self._t0,
            "window_wall_s": now - self._last_t,
            "miss_rate": misses / tot_events if tot_events else 0.0,
            "l1_hit_rate": tot_l1 / tot_events if tot_events else 0.0,
            "mean_exposed_latency": (tot_lat / data_misses
                                     if data_misses else 0.0),
            "noc_hops_per_event": (
                delta.get("system.noc.link_traversals", 0) / wevents
                if wevents else 0.0),
            "llc_accesses": delta.get("system.caches.llc_accesses", 0),
            "memory_accesses": (delta.get("system.memory.reads", 0)
                                + delta.get("system.memory.writes", 0)),
            "fault_events": fault_events,
            "per_core": per_core,
            "vault_occupancy": system.occupancy_by_bank(),
            "vault_traffic": vault_traffic,
        })
        self._last = cur
        self._last_events = driven
        self._last_t = now

    def finish(self, driven):
        """Close the trailing partial window and segment the series
        into phases (idempotent)."""
        if self.finished:
            return
        if driven > self._last_events:
            self._sample(driven)
        self.phases = detect_phases([w["miss_rate"]
                                     for w in self.windows])
        self.finished = True

    # -- export ---------------------------------------------------------

    def summary(self):
        """Manifest-ready record: interval, window count, detected
        phases and the full window series."""
        return {
            "interval_events": self.interval,
            "windows": len(self.windows),
            "phases": self.phases,
            "series": self.windows,
        }


def export_jsonl(samplers):
    """One JSON object per window across all sampled runs (each tagged
    with its run index); trailing newline, empty string when no
    windows were recorded."""
    lines = []
    for run, sampler in enumerate(samplers):
        for w in sampler.windows:
            rec = dict(w)
            rec["run"] = run
            lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(metric):
    return "silo_" + metric


def export_prometheus(samplers):
    """Prometheus text exposition of the latest window of every run
    (gauges labelled by run / run+core / run+vault, plus total window
    and phase counts)."""
    helps = {
        "miss_rate": "aggregate L1 miss rate of the latest window",
        "l1_hit_rate": "aggregate L1 hit rate of the latest window",
        "mean_exposed_latency_cycles":
            "mean exposed data-miss latency of the latest window",
        "noc_hops_per_event": "NoC link traversals per driven event",
        "fault_events": "fault events observed in the latest window",
        "windows_total": "telemetry windows recorded",
        "phases_total": "phases detected on the windowed miss rate",
        "core_miss_rate": "per-core L1 miss rate of the latest window",
        "vault_occupancy": "per-vault/bank occupancy fraction",
        "vault_traffic_events":
            "per-vault local-LLC events in the latest window",
    }
    out = []
    emitted = set()

    def emit(metric, labels, value):
        name = _prom_name(metric)
        if metric not in emitted:
            emitted.add(metric)
            out.append("# HELP %s %s" % (name, helps[metric]))
            out.append("# TYPE %s gauge" % name)
        label_s = ",".join('%s="%s"' % kv for kv in labels)
        out.append("%s{%s} %.10g" % (name, label_s, value))

    for run, sampler in enumerate(samplers):
        rl = (("run", run),)
        emit("windows_total", rl, len(sampler.windows))
        emit("phases_total", rl, len(sampler.phases))
        if not sampler.windows:
            continue
        w = sampler.windows[-1]
        emit("miss_rate", rl, w["miss_rate"])
        emit("l1_hit_rate", rl, w["l1_hit_rate"])
        emit("mean_exposed_latency_cycles", rl,
             w["mean_exposed_latency"])
        emit("noc_hops_per_event", rl, w["noc_hops_per_event"])
        emit("fault_events", rl, w["fault_events"])
        for core, pc in enumerate(w["per_core"]):
            emit("core_miss_rate", rl + (("core", core),),
                 pc["miss_rate"])
        for vault, occ in enumerate(w["vault_occupancy"]):
            emit("vault_occupancy", rl + (("vault", vault),), occ)
        for vault, traffic in enumerate(w["vault_traffic"]):
            emit("vault_traffic_events", rl + (("vault", vault),),
                 traffic)
    return "\n".join(out) + ("\n" if out else "")


def export_group_prometheus(snapshot, prefix, labels=()):
    """Prometheus text exposition of a stats-group snapshot.

    Flattens the nested plain-dict form returned by
    :meth:`repro.obs.stats.Group.snapshot` into ``silo_<prefix>_<path>``
    gauges, keeping only numeric leaves (strings, None and span lists
    are manifest detail, not metrics).  This is what the job server's
    ``GET /metrics`` endpoint serves for its own counters and the
    engine group.
    """
    out = []

    def walk(node, path):
        for name in sorted(node):
            value = node[name]
            sub = path + (name,)
            if isinstance(value, dict):
                walk(value, sub)
            elif isinstance(value, bool):
                emit(sub, int(value))
            elif isinstance(value, (int, float)):
                emit(sub, value)

    def emit(path, value):
        name = _prom_name("_".join((prefix,) + path))
        out.append("# TYPE %s gauge" % name)
        if labels:
            label_s = ",".join('%s="%s"' % kv for kv in labels)
            out.append("%s{%s} %.10g" % (name, label_s, value))
        else:
            out.append("%s %.10g" % (name, value))

    walk(snapshot, ())
    return "\n".join(out) + ("\n" if out else "")


def export_chrome_trace(samplers, profile_report=None,
                        engine_spans=None):
    """``chrome://tracing``-compatible JSON (opens in Perfetto).

    Per run: counter (``"ph": "C"``) tracks for miss rate and NoC hops
    per event, plus one ``"ph": "X"`` span per detected phase.
    Optionally appends the sampled profile's flame chart
    (:func:`repro.obs.profile.trace_events`) and the engine
    flight recorder's real spans
    (:meth:`repro.obs.recorder.FlightRecorder` spans via
    ``repro.obs.recorder.span_trace_events``).
    """
    events = []
    for run, sampler in enumerate(samplers):
        pid = 100 + run
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0,
                       "args": {"name": "telemetry run %d" % run}})
        for w in sampler.windows:
            ts = w["wall_s"] * 1e6
            events.append({"ph": "C", "name": "miss_rate", "pid": pid,
                           "tid": 0, "ts": ts,
                           "args": {"miss_rate": w["miss_rate"]}})
            events.append({"ph": "C", "name": "noc_hops_per_event",
                           "pid": pid, "tid": 0, "ts": ts,
                           "args": {"hops": w["noc_hops_per_event"]}})
        for i, phase in enumerate(sampler.phases):
            first = sampler.windows[phase["start"]]
            last = sampler.windows[phase["end"] - 1]
            t_begin = (first["wall_s"] - first["window_wall_s"]) * 1e6
            t_end = last["wall_s"] * 1e6
            events.append({
                "ph": "X", "cat": "phase",
                "name": "phase %d (miss %.3f)" % (i, phase["mean"]),
                "pid": pid, "tid": 1, "ts": t_begin,
                "dur": max(t_end - t_begin, 1.0),
                "args": dict(phase),
            })
    if profile_report is not None:
        from repro.obs.profile import trace_events
        events.extend(trace_events(profile_report, pid=1))
    if engine_spans:
        from repro.obs.recorder import span_trace_events
        events.extend(span_trace_events(engine_spans, pid=2))
    return {"traceEvents": events, "displayTimeUnit": "ms"}
