"""Latency histograms and the flat listing of a machine's statistics.

A :class:`Distribution` is a log2-bucketed histogram with approximate
percentiles; each core keeps one per service level
(:class:`~repro.cores.perf_model.CoreModel`), and a run summary keeps
them merged over its driven cores, one per level, for its latency
percentiles.

:func:`dump` renders the whole-machine tree of
:meth:`repro.sim.system.System.stats` (nested plain dicts) as the
gem5-style flat listing ``--stats`` prints.
"""


class Distribution:
    """Log2-bucketed histogram with approximate percentiles.

    Samples land in bucket ``int(x).bit_length()`` (0, 1, 2-3, 4-7,
    ...), so percentile estimates carry at most one octave of error --
    plenty for latency distributions spanning 0 to a few thousand
    cycles -- at O(1) record cost and O(buckets) memory.
    """

    def __init__(self, max_bucket=24):
        self.max_bucket = max_bucket
        self.buckets = [0] * (max_bucket + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def record(self, x):
        b = int(x).bit_length()
        if b > self.max_bucket:
            b = self.max_bucket
        self.buckets[b] += 1
        self.count += 1
        self.total += x
        if self.min is None or x < self.min:
            self.min = x
        if self.max is None or x > self.max:
            self.max = x

    def merge(self, other):
        """Fold another distribution's samples into this one."""
        if other.max_bucket != self.max_bucket:
            raise ValueError("bucket layouts differ")
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        return self

    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, p):
        """Approximate p-th percentile (upper edge of the bucket
        holding the p-th sample, clamped to the observed max)."""
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        seen = 0
        for b, n in enumerate(self.buckets):
            seen += n
            if seen >= rank and n:
                upper = 0 if b == 0 else (1 << b) - 1
                if self.max is not None:
                    upper = min(upper, self.max)
                if self.min is not None:
                    upper = max(upper, self.min)
                return float(upper)
        return float(self.max or 0.0)

    def value(self):
        """The summary a stats tree holds: one leaf of :func:`dump`."""
        return {
            "count": self.count,
            "mean": self.mean(),
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def reset(self):
        self.buckets = [0] * (self.max_bucket + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None


#: The keys of :meth:`Distribution.value`: a dict holding exactly these
#: is one leaf of a stats tree, not a group.
_SUMMARY_KEYS = frozenset(Distribution().value())


def _leaves(tree, prefix):
    for name, value in tree.items():
        path = "%s.%s" % (prefix, name)
        if isinstance(value, dict) and value.keys() != _SUMMARY_KEYS:
            yield from _leaves(value, path)
        else:
            yield path, value


def dump(tree, prefix="system"):
    """gem5-style flat listing of a stats tree: one ``path  value``
    line per leaf, in tree order (a distribution's summary on one
    line)."""
    lines = []
    for path, value in _leaves(tree, prefix):
        if isinstance(value, dict):
            rendered = " ".join("%s=%s" % (k, _fmt(x))
                                for k, x in value.items())
        else:
            rendered = _fmt(value)
        lines.append("%-46s %s" % (path, rendered))
    return "\n".join(lines)


def _fmt(v):
    if isinstance(v, float):
        return "%.4f" % v
    return str(v)
