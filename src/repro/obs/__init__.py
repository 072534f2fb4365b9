"""Observability: statistics, event tracing, provenance.

Three pieces, modelled on mature simulation stacks (gem5's stats
dump in particular):

* :mod:`repro.obs.stats` -- the log2-bucketed latency
  :class:`~repro.obs.stats.Distribution` each core keeps per service
  level, and :func:`~repro.obs.stats.dump`, the flat ``--stats``
  listing of ``System.stats()`` (the whole machine's counters as
  nested plain dicts; each counter's owner keeps and resets it).
* :mod:`repro.obs.trace` -- an optional event tracer (a bounded ring
  buffer with per-kind counts) for coherence transitions, directory
  lookups, invalidation/downgrade flows and vault evictions.  Costs one
  ``is not None`` check per site when disabled.
* :mod:`repro.obs.manifest` -- run-provenance manifests: JSON artifacts
  capturing config, seed, git sha, sampling plan, wall clock,
  events/sec and exposed-latency percentiles for every run.

Observability v2 adds two phase/time-resolved pieces on top:

* :mod:`repro.obs.telemetry` -- a windowed sampler over the counters
  a run summary records (``--telemetry N``): per-core/per-vault time
  series, phase detection on the windowed miss rate, JSONL /
  Prometheus / Perfetto exporters.
* :mod:`repro.obs.profile` -- a ``SIGPROF`` stack sampler
  (``--profile``) that splits the simulator's wall clock by layer and
  wraps nothing; also owns :data:`clock`, the sanctioned wall-clock
  for simulator code (silolint SL008).

The run engine keeps its own flight recorder (one span per resolved
point, and its gauges: :class:`repro.sim.engine.RunEngine`);
:func:`~repro.obs.telemetry.export_chrome_trace` draws its spans.

:mod:`repro.obs.session` ties them to the CLI: a context manager that
the run driver consults so ``--stats/--trace/--manifest/--telemetry/
--profile`` flags reach simulations started deep inside experiment
functions.
"""

from repro.obs.stats import Distribution
from repro.obs.trace import (EventTracer, TraceEvent, EV_COHERENCE,
                             EV_DIRECTORY, EV_INVALIDATE, EV_DOWNGRADE,
                             EV_EVICTION)
from repro.obs.manifest import git_sha, write_manifest, MANIFEST_SCHEMA
from repro.obs.session import observe, current_session
from repro.obs.profile import clock, Profiler, render_report
from repro.obs.telemetry import (TelemetrySampler, detect_phases,
                                 export_jsonl, export_prometheus,
                                 export_chrome_trace)

__all__ = [
    "Distribution",
    "EventTracer", "TraceEvent",
    "EV_COHERENCE", "EV_DIRECTORY", "EV_INVALIDATE", "EV_DOWNGRADE",
    "EV_EVICTION",
    "git_sha", "write_manifest", "MANIFEST_SCHEMA",
    "observe", "current_session",
    "clock", "Profiler", "render_report",
    "TelemetrySampler", "detect_phases",
    "export_jsonl", "export_prometheus", "export_chrome_trace",
]
