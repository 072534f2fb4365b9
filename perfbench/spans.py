"""Outside-in tracing for the benchmark's traced runs.

Nothing here edits the program: a :class:`Tracer` replaces public entry
points with timing wrappers *at the name their caller looks up* (a
module attribute or a class attribute) and puts the originals back on
:meth:`Tracer.uninstall`.  Each call becomes one span -- name, start,
end, parent span and the identity of the request it served -- kept in
memory until the run ends.

Calls under ``System.access`` last about a microsecond, so wrapping
them would cost more than they do and skew the split.  Their self time
comes from :class:`Sampler` instead: a ``signal.setitimer`` profiler
that charges each sample to the layer of the innermost ``repro`` frame
(:func:`layer_of`).
"""

import contextvars
import functools
import inspect
import itertools
import signal
import time
from collections import Counter, defaultdict, namedtuple

Span = namedtuple("Span", "sid name start end parent rid attrs")


class Tracer:
    """Records spans from wrapped entry points.

    The current span and request identity live in context variables,
    so parent links are right per thread and per asyncio task (the job
    server interleaves many connections on one loop)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span",
                                               default=None)
        self.rid = contextvars.ContextVar("perfbench_rid", default=None)
        self._undo = []

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, attr in vars(owner),
                           vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, note=None, new_rid=False,
             sticky=False):
        """Replace ``owner.attr`` with a timing wrapper.

        ``note(args, kwargs, result)`` returns extra span attributes
        (called after the wrapped call returns).  ``new_rid`` gives
        every call a fresh request identity, inherited by its children;
        with ``sticky`` the identity also stays set after the call
        returns, so later calls in the same task or thread (the parse
        and render steps after an HTTP read) share it."""
        fn = getattr(owner, attr)
        clock = self.clock
        current = self._current
        rid_var = self.rid
        ids = self._ids
        spans = self.spans

        def begin():
            parent = current.get()
            sid = next(ids)
            token = current.set(sid)
            rid_token = rid_var.set(sid) if new_rid else None
            return parent, sid, token, rid_token

        def finish(parent, sid, token, rid_token, t0, args, kwargs,
                   result):
            t1 = clock()
            rid = rid_var.get()
            current.reset(token)
            if rid_token is not None and not sticky:
                rid_var.reset(rid_token)
            attrs = note(args, kwargs, result) if note else {}
            spans.append(Span(sid, name, t0, t1, parent, rid, attrs))

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                parent, sid, token, rid_token = begin()
                t0 = clock()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    finish(parent, sid, token, rid_token, t0, args,
                           kwargs, result)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent, sid, token, rid_token = begin()
                t0 = clock()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    finish(parent, sid, token, rid_token, t0, args,
                           kwargs, result)

        self.patch(owner, attr, wrapper)
        return wrapper

    def uninstall(self):
        """Restore every wrapped name, newest first."""
        while self._undo:
            owner, attr, had, original = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self):
        """Spans as JSON-native rows."""
        return [s._asdict() for s in self.spans]


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """``{sid: self seconds}``: each span's duration minus the part of
    it that its children cover (children may overlap each other)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start)
            - covered(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


def spans_from_rows(rows):
    """Inverse of :meth:`Tracer.dump` (spans read back from a file)."""
    return [Span(**row) for row in rows]


# ---------------------------------------------------------------------------
# statistical sampler for the per-event layers
# ---------------------------------------------------------------------------


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


class Sampler:
    """``SIGPROF`` sampler: every ``interval`` seconds of process CPU
    time, charge one sample to the layer of the innermost ``repro``
    frame, under the caller-set ``context`` (None = not counted)."""

    def __init__(self, interval=0.002):
        self.interval = interval
        self.context = None
        self.counts = defaultdict(Counter)   # context -> layer -> n
        self._prev = None
        self._layers = {}

    def _on_signal(self, _signum, frame):
        ctx = self.context
        if ctx is None:
            return
        layers = self._layers
        while frame is not None:
            module = frame.f_globals.get("__name__")
            layer = layers.get(module, False)
            if layer is False:
                layer = layers[module] = layer_of(module)
            if layer is not None:
                self.counts[ctx][layer] += 1
                return
            frame = frame.f_back
        self.counts[ctx]["outside"] += 1

    def start(self):
        self._prev = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._prev or signal.SIG_DFL)

    def shares(self, context):
        """``{layer: fraction of the context's samples}``."""
        counts = self.counts.get(context, Counter())
        total = sum(counts.values())
        return {layer: n / total for layer, n in counts.items()} \
            if total else {}
