"""Phase-resolved telemetry: a windowed sampler over the machine's counters.

End-of-run totals hide how a run *evolves*: cold-cache warm-in, working
-set shifts, a fault burst.  The :class:`TelemetrySampler` closes that
gap by reading the counters a run summary records
(``System.counters``) and each core's per-level counts and latency
sums every N driven events (``--telemetry N``) and recording
per-window *deltas*: per-core hit rates and exposed latency, NoC hops
per event, memory traffic, fault events, and a per-vault
occupancy/traffic heatmap series.  A greedy mean-shift change-point
pass over the windowed miss rate segments the series into phases.

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

#: Default miss-rate deviation (absolute) that opens a new phase.
PHASE_ABS_TOL = 0.03
#: Default miss-rate deviation relative to the running phase mean.
PHASE_REL_TOL = 0.5


def _fault_events(counters):
    """Faults fired by the time of a ``System.counters()`` dict: bit
    flips, channel stalls and vault transitions, not ticks or recovery
    work."""
    faults = counters.get("faults")
    if faults is None:
        return 0
    return (faults["injected"] + faults["stall_events"]
            + faults["offline_events"] + faults["online_events"])


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
    """Windowed delta sampler over one System's counters.

    ``run_system`` builds the sampler right after the warmup-boundary
    stats reset, so the first window's deltas start from zero;
    ``_drive`` calls :meth:`tick` once per interleave round and the
    sampler closes a window whenever the driven-event count crosses the
    next interval boundary.  :meth:`finish` closes the final partial
    window and runs phase detection.
    """

    def __init__(self, system, interval_events):
        if interval_events < 1:
            raise ValueError("telemetry interval must be >= 1, got %r"
                             % (interval_events,))
        self.system = system
        self.interval = int(interval_events)
        self.windows = []
        self.phases = []
        self.finished = False
        self._next_at = self.interval
        self._last = self._read()
        self._last_events = 0
        self._t0 = clock()
        self._last_t = self._t0

    # -- sampling -------------------------------------------------------

    def _read(self):
        """``System.counters()`` and a copy of each core's per-level
        ``(data_count, ifetch_count, data_latency)``."""
        system = self.system
        return system.counters(), [
            (list(c.data_count), list(c.ifetch_count),
             list(c.data_latency)) for c in system.cores]

    def tick(self, driven):
        """Close a window if ``driven`` (cumulative events this drive)
        crossed the next interval boundary.  Called once per interleave
        round from ``_drive``; cheap when no boundary was crossed."""
        if driven >= self._next_at:
            self._sample(driven)
            while self._next_at <= driven:
                self._next_at += self.interval

    def _sample(self, driven):
        # Imported here, not at module top: perf_model imports
        # repro.obs.stats, whose package __init__ imports this module.
        from repro.cores.perf_model import LEVEL_L1, LEVEL_LLC_LOCAL
        now = clock()
        counters, cores = self._read()
        last, last_cores = self._last
        wevents = driven - self._last_events

        def delta(name):
            return counters[name] - last[name]

        per_core = []
        vault_traffic = []
        tot_events = 0
        tot_l1 = 0
        tot_data = 0
        tot_data_l1 = 0
        tot_lat = 0.0
        for (dc, ic, dl), (ldc, lic, ldl) in zip(cores, last_cores):
            d = [n - m for n, m in zip(dc, ldc)]
            i = [n - m for n, m in zip(ic, lic)]
            data = sum(d)
            events = data + sum(i)
            lat = 0.0
            for x, y in zip(dl, ldl):
                lat += x - y
            hits = d[LEVEL_L1] + i[LEVEL_L1]
            data_misses = data - d[LEVEL_L1]
            per_core.append({
                "events": events,
                "l1_hit_rate": hits / events if events else 0.0,
                "miss_rate": (events - hits) / events if events else 0.0,
                "mean_exposed_latency": (lat / data_misses
                                         if data_misses else 0.0),
            })
            vault_traffic.append(d[LEVEL_LLC_LOCAL] + i[LEVEL_LLC_LOCAL])
            tot_events += events
            tot_l1 += hits
            tot_data += data
            tot_data_l1 += d[LEVEL_L1]
            tot_lat += lat

        misses = tot_events - tot_l1
        data_misses = tot_data - tot_data_l1
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
            "noc_hops_per_event": (delta("link_traversals") / wevents
                                   if wevents else 0.0),
            "llc_accesses": delta("llc_accesses"),
            "memory_accesses": delta("memory_accesses"),
            "fault_events": _fault_events(counters) - _fault_events(last),
            "per_core": per_core,
            "vault_occupancy": self.system.occupancy_by_bank(),
            "vault_traffic": vault_traffic,
        })
        self._last = counters, cores
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


def _prometheus_text(samples, helps=None):
    """The one Prometheus text writer: ``(metric, labels, value)``
    samples as ``silo_<metric>`` gauges, each metric's ``# HELP`` (from
    ``helps``, if given) and ``# TYPE`` lines before its first sample."""
    out = []
    seen = set()
    for metric, labels, value in samples:
        name = "silo_" + metric
        if metric not in seen:
            seen.add(metric)
            if helps is not None:
                out.append("# HELP %s %s" % (name, helps[metric]))
            out.append("# TYPE %s gauge" % name)
        if labels:
            label_s = ",".join('%s="%s"' % kv for kv in labels)
            out.append("%s{%s} %.10g" % (name, label_s, value))
        else:
            out.append("%s %.10g" % (name, value))
    return "\n".join(out) + ("\n" if out else "")


_WINDOW_HELP = {
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


def _window_samples(samplers):
    for run, sampler in enumerate(samplers):
        rl = (("run", run),)
        yield "windows_total", rl, len(sampler.windows)
        yield "phases_total", rl, len(sampler.phases)
        if not sampler.windows:
            continue
        w = sampler.windows[-1]
        yield "miss_rate", rl, w["miss_rate"]
        yield "l1_hit_rate", rl, w["l1_hit_rate"]
        yield "mean_exposed_latency_cycles", rl, w["mean_exposed_latency"]
        yield "noc_hops_per_event", rl, w["noc_hops_per_event"]
        yield "fault_events", rl, w["fault_events"]
        for core, pc in enumerate(w["per_core"]):
            yield "core_miss_rate", rl + (("core", core),), pc["miss_rate"]
        for vault, occ in enumerate(w["vault_occupancy"]):
            yield "vault_occupancy", rl + (("vault", vault),), occ
        for vault, traffic in enumerate(w["vault_traffic"]):
            yield "vault_traffic_events", rl + (("vault", vault),), traffic


def export_prometheus(samplers):
    """Prometheus text exposition of the latest window of every run
    (gauges labelled by run / run+core / run+vault, plus total window
    and phase counts)."""
    return _prometheus_text(_window_samples(samplers), _WINDOW_HELP)


def export_group_prometheus(snapshot, prefix):
    """Prometheus text of a nested plain-dict snapshot as
    ``silo_<prefix>_<path>`` gauges, numeric leaves only (strings, None
    and span lists are manifest detail): the job server's ``GET
    /metrics`` for its own counters and the engine's snapshot."""
    def leaves(node, path):
        for name in sorted(node):
            value = node[name]
            if isinstance(value, dict):
                yield from leaves(value, path + (name,))
            elif isinstance(value, (int, float)):
                yield "_".join(path + (name,)), (), value

    return _prometheus_text(leaves(snapshot, (prefix,)))


def export_chrome_trace(samplers, profile_report=None,
                        engine_spans=None):
    """``chrome://tracing``-compatible JSON (opens in Perfetto).

    Per run: counter (``"ph": "C"``) tracks for miss rate and NoC hops
    per event, plus one ``"ph": "X"`` span per detected phase.
    Optionally appends the sampled profile's flame chart
    (:func:`repro.obs.profile.trace_events`) and a run engine's spans
    (:meth:`repro.sim.engine.RunEngine.spans`, drawn by
    :func:`span_trace_events`).
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
        events.extend(span_trace_events(engine_spans, pid=2))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_trace_events(spans, pid=2):
    """Chrome-tracing ``X`` events for run-engine spans: one track per
    worker, span start/duration taken from the recorded engine
    -relative timestamps (renders as a worker-occupancy lane chart in
    Perfetto)."""
    tids = {}
    for span in spans:
        tids.setdefault(span["worker"], len(tids) + 1)
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": "run engine"}}]
    events += [{"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": worker}} for worker, tid in tids.items()]
    events += [{
        "ph": "X", "cat": "engine",
        "name": "%s %s" % (span["mode"], span["key"][:12]),
        "pid": pid, "tid": tids[span["worker"]],
        "ts": span["started_s"] * 1e6,
        "dur": max(span["exec_s"] * 1e6, 1.0),
        "args": {"key": span["key"], "outcome": span["outcome"],
                 "queue_wait_s": span["queue_wait_s"]},
    } for span in spans]
    return events
