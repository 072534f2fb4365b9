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
results.  A session keeps the last simulated ``System``, whose
``stats()`` tree ``--stats`` prints.

A session records; it publishes nothing.  Live progress -- each point
a run engine resolves, with its span -- goes to that engine's own
:attr:`repro.sim.engine.RunEngine.listeners`, which is what the job
server streams to its ``GET /events`` clients.
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

    # -- hooks consulted by the driver / engine -------------------------

    def attach(self, system):
        """Give ``system`` a tracer if tracing was requested."""
        if self.trace_capacity > 0 and system.tracer is None:
            from repro.obs.trace import EventTracer
            system.attach_tracer(EventTracer(self.trace_capacity))

    def note_run(self, result):
        """Record one finished run (called by ``run_system``)."""
        self.last_system = result.system
        self.last_tracer = result.system.tracer
        if result.telemetry is not None:
            self.telemetry.append(result.telemetry)
        if self.profiler is not None:
            self.profiler.driven_events += result.driven_events()
        if self.collect_manifests:
            self.runs.append(result.manifest())

    def note_summary(self, summary):
        """Record a run that finished without a live System in this
        process -- restored from the run cache, estimated, or simulated
        through a transport (called by
        :class:`repro.sim.engine.RunEngine`)."""
        if self.collect_manifests:
            self.runs.append(summary.manifest())


_current = None


def current_session():
    """The active session, or None when nothing is observing."""
    return _current


def clear_current():
    """Leave this process with no active session (a pool worker's
    start: what it would note, nothing reads)."""
    global _current
    _current = None


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
