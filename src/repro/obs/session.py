"""Observation sessions: how CLI flags reach nested simulations.

Experiment functions call :func:`repro.sim.driver.simulate` many levels
below the CLI, so ``--stats/--trace/--manifest/--telemetry/--profile``
cannot be threaded through their signatures without touching every
experiment.  Instead the CLI opens an :class:`ObservationSession` (a
context manager setting a module-level current session);
``run_system`` consults it to attach a tracer and build a telemetry
sampler before driving, and to deposit a per-run manifest record
after.  A profiling session runs the ``SIGPROF`` sampler of
:mod:`repro.obs.profile` from the moment it opens until it closes, so
the profile covers trace generation, system builds and summaries as
well as the drive loop.

Sessions are inert by construction: they only *read* simulator state
(plus attach a tracer, which itself only records, and sample the
interpreter stack), so enabling one never changes simulation
results.  Sessions are also a streaming seam:
listeners registered with :meth:`ObservationSession.add_listener`
receive ``(kind, payload)`` events -- ``"run"`` per finished run and
``"engine_span"`` per flight-recorder span -- which is the callback
surface a future job server subscribes to for live progress.
"""

from contextlib import contextmanager


class ObservationSession:
    """Collects what the CLI asked to observe across an experiment."""

    def __init__(self, trace_capacity=0, collect_manifests=False,
                 collect_stats=False, telemetry_every=0, profile=False):
        self.trace_capacity = trace_capacity
        self.collect_manifests = collect_manifests
        self.collect_stats = collect_stats
        self.telemetry_every = telemetry_every
        self.profiler = None
        if profile:
            from repro.obs.profile import Profiler
            self.profiler = Profiler()
        self.telemetry = []       # TelemetrySampler per sampled run
        self.runs = []            # per-run manifest dicts
        self.last_system = None
        self.last_tracer = None
        self._listeners = []

    @property
    def active(self):
        """Whether anything at all was requested of this session."""
        return (self.trace_capacity > 0 or self.collect_manifests
                or self.collect_stats or self.telemetry_every > 0
                or self.profiler is not None)

    def needs_live(self):
        """Whether runs must execute in-process with live ``System``
        objects (tracing, stats inspection, telemetry sampling and
        profiling all read state a cache replay or pool worker cannot
        provide)."""
        return (self.trace_capacity > 0 or self.collect_stats
                or self.telemetry_every > 0
                or self.profiler is not None)

    # -- streaming -------------------------------------------------------

    def add_listener(self, fn):
        """Register ``fn(kind, payload)`` for live progress events."""
        self._listeners.append(fn)

    def emit(self, kind, payload):
        """Deliver one progress event to every listener."""
        for fn in self._listeners:
            fn(kind, payload)

    # -- hooks consulted by the driver / engine -------------------------

    def attach(self, system):
        """Give ``system`` a tracer if tracing was requested."""
        if self.trace_capacity > 0 and system.tracer is None:
            from repro.obs.trace import EventTracer
            system.attach_tracer(EventTracer(self.trace_capacity))

    def note_run(self, result, seed=None):
        """Record one finished run (called by ``run_system``)."""
        self.last_system = result.system
        self.last_tracer = result.system.tracer
        if result.telemetry is not None:
            self.telemetry.append(result.telemetry)
        if self.profiler is not None:
            self.profiler.driven_events += result.driven_events()
        if self.collect_manifests:
            self.runs.append(result.manifest(seed=seed))
        if self._listeners:
            self.emit("run", {"events": result.driven_events(),
                              "performance": result.performance()})

    def note_summary(self, summary):
        """Record a run that finished without a live System in this
        process -- restored from the run cache or simulated in a pool
        worker (called by :class:`repro.sim.engine.RunEngine`)."""
        if self.collect_manifests:
            self.runs.append(summary.manifest())
        if self._listeners:
            self.emit("run", {"key": summary.request_key})


_current = None


def current_session():
    """The active session, or None when nothing is observing."""
    return _current


@contextmanager
def observe(trace_capacity=0, collect_manifests=False,
            collect_stats=False, telemetry_every=0, profile=False):
    """Open an observation session for the duration of the block (a
    profiling session samples from entry to exit, on the main
    thread)."""
    global _current
    session = ObservationSession(trace_capacity, collect_manifests,
                                 collect_stats, telemetry_every,
                                 profile)
    prev = _current
    _current = session
    try:
        if session.profiler is not None:
            session.profiler.start()
        yield session
    finally:
        if session.profiler is not None:
            session.profiler.stop()
        _current = prev
