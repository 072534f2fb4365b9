"""Engine flight recorder: per-RunRequest spans and engine gauges.

The :class:`repro.sim.engine.RunEngine` counters say *how many* jobs
ran; the flight recorder says *what happened to each one*: when it was
picked up, how long it waited in the queue, which worker executed it,
whether it was simulated or replayed from the run cache, and its
outcome.  Spans are held in a bounded ring (oldest dropped first) so a
long sweep cannot grow without bound, while the cumulative gauges --
busy seconds, queue-wait seconds, batches, worker utilization --
always cover the whole run.

The recorder is serialized into the manifest envelope
(``engine.flight_recorder``) and each span is streamed through
:meth:`repro.obs.session.ObservationSession.emit` as an
``engine_span`` event -- the progress-streaming seam the job server
forwards to its ``GET /events`` subscribers.
"""

from collections import deque

from repro.obs.profile import clock

#: Spans retained in the ring before the oldest are dropped.
DEFAULT_CAPACITY = 4096


class FlightRecorder:
    """Bounded span log plus cumulative gauges for one RunEngine."""

    def __init__(self, capacity=DEFAULT_CAPACITY):
        self.capacity = capacity
        self._spans = deque(maxlen=capacity)
        #: Engine-relative time origin; span timestamps are seconds
        #: since this instant (comparable across workers because every
        #: span's start is computed on the parent from this clock).
        self.epoch = clock()
        self.total_spans = 0
        self.dropped = 0
        self.busy_s = 0.0
        self.queue_wait_s = 0.0
        self.batches = 0
        self.batch_wall_s = 0.0
        self.in_flight = 0
        self.workers = set()

    # -- recording ------------------------------------------------------

    def record(self, key, mode, worker, queue_wait_s, exec_s,
               started_s, outcome="ok"):
        """Append one span.

        ``mode`` is ``"simulate"``, ``"estimate"`` or
        ``"cache-replay"``; ``worker`` identifies the executor
        (``"local"``, ``"pid:<n>"`` or ``"http:<dedup>"``);
        ``started_s`` is seconds since :attr:`epoch`.  Returns the span
        dict (also streamed by the engine through the session).
        """
        span = {
            "key": key,
            "mode": mode,
            "worker": worker,
            "queue_wait_s": queue_wait_s,
            "exec_s": exec_s,
            "started_s": started_s,
            "ended_s": started_s + exec_s,
            "outcome": outcome,
        }
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)
        self.total_spans += 1
        self.busy_s += exec_s
        self.queue_wait_s += queue_wait_s
        self.workers.add(worker)
        return span

    def start_batch(self, n):
        """Mark ``n`` requests as dispatched (in-flight gauge up)."""
        self.batches += 1
        self.in_flight += n

    def end_batch(self, wall_s):
        """Close a batch: fold its wall clock into the utilization
        denominator and drain the in-flight gauge."""
        self.batch_wall_s += wall_s
        self.in_flight = 0

    # -- reading --------------------------------------------------------

    def spans(self):
        """The retained spans, oldest first."""
        return list(self._spans)

    def utilization(self, jobs):
        """Fraction of worker capacity kept busy: busy seconds over
        ``jobs`` workers times total batch wall clock."""
        denom = jobs * self.batch_wall_s
        return self.busy_s / denom if denom > 0 else 0.0

    def summary(self, jobs):
        """Manifest-ready record: gauges plus the retained spans."""
        return {
            "spans_recorded": self.total_spans,
            "spans_retained": len(self._spans),
            "spans_dropped": self.dropped,
            "busy_s": self.busy_s,
            "queue_wait_s": self.queue_wait_s,
            "batches": self.batches,
            "batch_wall_s": self.batch_wall_s,
            "in_flight": self.in_flight,
            "workers": sorted(self.workers),
            "worker_utilization": self.utilization(jobs),
            "spans": self.spans(),
        }


def span_trace_events(spans, pid=2):
    """Chrome-tracing ``X`` events for flight-recorder spans: one track
    per worker, span start/duration taken from the recorded engine
    -relative timestamps (renders as a worker-occupancy lane chart in
    Perfetto)."""
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": "run engine"}}]
    tids = {}
    for span in spans:
        worker = span["worker"]
        tid = tids.get(worker)
        if tid is None:
            tid = tids[worker] = len(tids) + 1
            events.append({"ph": "M", "name": "thread_name",
                           "pid": pid, "tid": tid,
                           "args": {"name": worker}})
        events.append({
            "ph": "X", "cat": "engine",
            "name": "%s %s" % (span["mode"], span["key"][:12]),
            "pid": pid, "tid": tid,
            "ts": span["started_s"] * 1e6,
            "dur": max(span["exec_s"] * 1e6, 1.0),
            "args": {"key": span["key"], "outcome": span["outcome"],
                     "queue_wait_s": span["queue_wait_s"]},
        })
    return events
