"""Observability: hierarchical statistics, event tracing, provenance.

Three pieces, modelled on mature simulation stacks (gem5's stats
framework in particular):

* :mod:`repro.obs.stats` -- a hierarchical registry of named statistics
  (counters, latency distributions, derived formulas) that every
  subsystem registers into.  ``System.stats`` is the root group;
  ``snapshot()`` exports the whole tree, ``reset()`` zeroes it (this is
  what ``System.reset_stats`` delegates to after warmup).
* :mod:`repro.obs.trace` -- an optional event tracer (bounded ring
  buffer plus pluggable sinks) for coherence transitions, directory
  lookups, invalidation/downgrade flows and vault evictions.  Costs one
  ``is not None`` check per site when disabled.
* :mod:`repro.obs.manifest` -- run-provenance manifests: JSON artifacts
  capturing config, seed, git sha, sampling plan, wall clock,
  events/sec and exposed-latency percentiles for every run.

Observability v2 adds three phase/time-resolved pieces on top:

* :mod:`repro.obs.telemetry` -- a windowed sampler over the stats
  registry (``--telemetry N``): per-core/per-vault time series, phase
  detection on the windowed miss rate, JSONL / Prometheus / Perfetto
  exporters.
* :mod:`repro.obs.profile` -- a ``SIGPROF`` stack sampler
  (``--profile``) that splits the simulator's wall clock by layer and
  wraps nothing; also owns :data:`clock`, the sanctioned wall-clock
  for simulator code (silolint SL008).
* :mod:`repro.obs.recorder` -- the run engine's flight recorder:
  per-RunRequest spans and engine gauges.

:mod:`repro.obs.session` ties them to the CLI: a context manager that
the run driver consults so ``--stats/--trace/--manifest/--telemetry/
--profile`` flags reach simulations started deep inside experiment
functions.
"""

from repro.obs.stats import (Stat, Counter, BoundStat, Formula,
                             Distribution, Group)
from repro.obs.trace import (EventTracer, TraceEvent, JsonlSink,
                             EV_COHERENCE, EV_DIRECTORY, EV_INVALIDATE,
                             EV_DOWNGRADE, EV_EVICTION)
from repro.obs.manifest import git_sha, write_manifest, MANIFEST_SCHEMA
from repro.obs.session import observe, current_session
from repro.obs.profile import clock, Profiler, render_report
from repro.obs.telemetry import (TelemetrySampler, detect_phases,
                                 export_jsonl, export_prometheus,
                                 export_chrome_trace)
from repro.obs.recorder import FlightRecorder

__all__ = [
    "Stat", "Counter", "BoundStat", "Formula", "Distribution", "Group",
    "EventTracer", "TraceEvent", "JsonlSink",
    "EV_COHERENCE", "EV_DIRECTORY", "EV_INVALIDATE", "EV_DOWNGRADE",
    "EV_EVICTION",
    "git_sha", "write_manifest", "MANIFEST_SCHEMA",
    "observe", "current_session",
    "clock", "Profiler", "render_report",
    "TelemetrySampler", "detect_phases",
    "export_jsonl", "export_prometheus", "export_chrome_trace",
    "FlightRecorder",
]
