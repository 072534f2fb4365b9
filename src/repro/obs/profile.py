"""Sampling wall-clock self-profiler (``--profile``).

Answers "where does the *simulator* spend its time" -- not simulated
time -- by layer, in the names perfbench's per-layer metrics use
(:func:`layer_of`: ``sim.driver``, ``sim.system``, ``caches``,
``coherence``, ``noc``, ``memory``, ``cores``, ``workloads``, ...).
A :class:`Profiler` arms ``ITIMER_PROF``; every :data:`INTERVAL_S` of
process CPU time the kernel sends ``SIGPROF``, and the handler charges
one sample to the chain of ``repro`` layers on the interrupted stack,
outermost first.  The innermost layer gets the sample's self time.
The drive loop retires trivial L1 hits inline, so their time is
``sim.driver`` self time; the mesh and directory lookups stay calls
(``Mesh2D.round_trip``, ``SharerTable.owner``, ...) so that a sample
taken inside one lands in ``noc`` or ``coherence``.

Nothing is wrapped: the simulator runs byte-for-byte unmodified, so
profiled runs stay bit-identical (tests/test_obs_inert.py).  The
handler times itself into ``sampler_s``, so every report states what
the instrument cost.  Signal handlers run on the main thread only, so
a profiled session must be opened there.

This module also owns :data:`clock`, the one sanctioned wall-clock
source for simulator code: silolint SL008 flags raw ``time.time()`` /
``time.perf_counter()`` / ``time.monotonic()`` calls in ``sim/``,
``caches/``, ``coherence/`` and ``noc/`` so that every measurement a
run records flows through the same clock the profiler uses.
"""

import signal
import time
from collections import Counter

#: The sanctioned wall-clock for simulator self-measurement.  Simulator
#: packages import this instead of calling ``time.perf_counter()``
#: directly (silolint SL008), so the profiler and the driver's
#: throughput meter are guaranteed to read the same clock.
clock = time.perf_counter

#: Requested sampling period, in seconds of process CPU time.  The
#: kernel rounds it up to its timer tick, so reports derive seconds
#: from sample shares, never from this value.
INTERVAL_S = 0.002


def layer_of(module):
    """Layer of a ``repro`` module: ``repro.sim.<m>`` is its own layer
    (``sim.system``, ``sim.driver``, ...), every other subpackage is one
    layer (``repro.caches.sram_cache`` -> ``caches``).  Modules outside
    the package map to None."""
    parts = (module or "").split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    if parts[1] == "sim" and len(parts) > 2:
        return "sim." + parts[2]
    return parts[1]


class Profiler:
    """``SIGPROF`` stack sampler over the ``repro`` layers.

    ``stacks`` counts samples per layer chain (a tuple, outermost
    first, with consecutive repeats collapsed); ``outside`` counts
    samples whose stack held no ``repro`` frame.
    """

    def __init__(self):
        self.stacks = Counter()
        self.outside = 0
        #: Seconds spent inside the signal handler itself.
        self.sampler_s = 0.0
        #: Measured events driven while the session was open (credited
        #: by ``ObservationSession.note_run``; the events/sec numerator).
        self.driven_events = 0
        self._layers = {}         # module name -> layer (memo)
        self._prev = None
        self._t0 = None
        self._stop_t = None

    def _on_signal(self, _signum, frame):
        t0 = clock()
        layers = self._layers
        chain = []
        while frame is not None:
            module = frame.f_globals.get("__name__")
            layer = layers.get(module, False)
            if layer is False:
                layer = layers[module] = layer_of(module)
            if layer is not None and (not chain or chain[-1] != layer):
                chain.append(layer)
            frame = frame.f_back
        if chain:
            chain.reverse()
            self.stacks[tuple(chain)] += 1
        else:
            self.outside += 1
        self.sampler_s += clock() - t0

    # -- lifecycle -------------------------------------------------------

    def start(self):
        """Install the handler and arm the profiling timer."""
        self._prev = signal.signal(signal.SIGPROF, self._on_signal)
        self._t0 = clock()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Disarm the timer, then restore the previous ``SIGPROF``
        handler and freeze the wall clock (idempotent)."""
        if self._t0 is None or self._stop_t is not None:
            return
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, (signal.SIG_DFL if self._prev is None
                                       else self._prev))
        self._stop_t = clock()

    def wall_s(self):
        """Seconds from :meth:`start` to :meth:`stop` (or to now)."""
        if self._t0 is None:
            return 0.0
        return (self._stop_t if self._stop_t is not None
                else clock()) - self._t0

    # -- report ----------------------------------------------------------

    def report(self):
        """The profile as plain data.  Each layer's seconds are its
        share of the samples times the wall clock; ``self_pct`` over
        all layers sums to ``100 * covered_fraction``."""
        wall = self.wall_s()
        events = self.driven_events
        covered = sum(self.stacks.values())
        total = covered + self.outside
        self_n = Counter()
        incl_n = Counter()
        for chain, n in self.stacks.items():
            self_n[chain[-1]] += n
            for layer in set(chain):
                incl_n[layer] += n
        layers = {}
        for layer in sorted(incl_n, key=lambda name: (-self_n[name], name)):
            self_s = wall * self_n[layer] / total
            layers[layer] = {
                "samples": self_n[layer],
                "self_s": self_s,
                "self_pct": 100.0 * self_n[layer] / total,
                "incl_pct": 100.0 * incl_n[layer] / total,
                "us_per_event": 1e6 * self_s / events if events else 0.0,
            }
        return {
            "wall_s": wall,
            "samples": total,
            "sampler_s": self.sampler_s,
            "driven_events": events,
            "events_per_sec": events / wall if wall > 0 else 0.0,
            "covered_fraction": covered / total if total else 0.0,
            "layers": layers,
            "stacks": {";".join(chain): n
                       for chain, n in sorted(self.stacks.items())},
        }


def render_report(report):
    """Human-readable layer table: self samples, self seconds, self
    and inclusive share of all samples, and self microseconds per
    driven event."""
    lines = ["# self-profile: %.3fs wall, %d samples (sampler %.2f%% of "
             "wall), %d events, %.0f ev/s, %.1f%% in repro"
             % (report["wall_s"], report["samples"],
                (100.0 * report["sampler_s"] / report["wall_s"]
                 if report["wall_s"] > 0 else 0.0),
                report["driven_events"], report["events_per_sec"],
                100.0 * report["covered_fraction"])]
    header = "%-16s %8s %9s %7s %7s %9s" % (
        "layer", "samples", "self_s", "self%", "incl%", "us/event")
    lines.append(header)
    lines.append("-" * len(header))
    for name, r in report["layers"].items():
        lines.append("%-16s %8d %9.4f %6.1f%% %6.1f%% %9.3f"
                     % (name, r["samples"], r["self_s"], r["self_pct"],
                        r["incl_pct"], r["us_per_event"]))
    return "\n".join(lines)


def trace_events(report, pid=1):
    """Chrome-tracing ``X`` events for a profile report: the folded
    stacks as a flame chart.  Each layer's span is sized by its
    inclusive samples and its children are laid out one after another
    from its start, so every child lies inside its parent."""
    events = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": "self-profile (aggregate)"}}]
    total = report["samples"]
    us_per_sample = 1e6 * report["wall_s"] / total if total else 0.0
    tree = {}                 # layer -> [samples, children]
    for folded, n in report["stacks"].items():
        level = tree
        for layer in folded.split(";"):
            node = level.setdefault(layer, [0, {}])
            node[0] += n
            level = node[1]

    def lay_out(level, ts):
        for layer, (n, children) in sorted(level.items()):
            dur = n * us_per_sample
            events.append({"ph": "X", "name": layer, "cat": "profile",
                           "pid": pid, "tid": 0, "ts": ts, "dur": dur,
                           "args": {"samples": n}})
            lay_out(children, ts)
            ts += dur

    lay_out(tree, 0.0)
    return events
