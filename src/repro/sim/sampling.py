"""SMARTS-style sampling plans (Sec. VI-C).

The paper warms architectural state, runs to steady state, then
measures a window.  Our trace-driven analogue: drive ``warmup_events``
references per core with statistics off (caches and coherence state
warm up), then measure ``measure_events`` per core.

The default plan is chosen so that the largest scaled structures (a
256 MB/64 = 4 MB direct-mapped vault per core and the scanned secondary
working sets) reach steady state.  ``from_env`` lets test/bench runs
pick lighter or heavier plans via ``REPRO_SAMPLING``.
"""

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class SamplingPlan:
    """Events per core for the warmup and measurement windows."""

    warmup_events: int = 60_000
    measure_events: int = 20_000

    def __post_init__(self):
        # Event counts slice the trace: a float fails only inside the
        # job, and a bool would run as a one-event window.
        for name in ("warmup_events", "measure_events"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError("%s must be an integer, got %r"
                                 % (name, value))
        if self.warmup_events < 0 or self.measure_events <= 0:
            raise ValueError("invalid sampling plan")

    @property
    def total_events(self):
        return self.warmup_events + self.measure_events


#: Named presets: quick for unit tests, standard for benchmarks, full
#: for high-fidelity runs.
PRESETS = {
    "quick": SamplingPlan(25_000, 12_000),
    "standard": SamplingPlan(60_000, 20_000),
    "full": SamplingPlan(150_000, 50_000),
}


def parse_plan(spec):
    """Resolve ``spec`` to a SamplingPlan: either a preset name or a
    custom ``warmup:measure`` event pair (e.g. ``40000:15000``)."""
    if ":" in spec:
        warmup_s, _, measure_s = spec.partition(":")
        try:
            return SamplingPlan(int(warmup_s), int(measure_s))
        except ValueError:
            raise ValueError(
                "invalid sampling spec %r; a custom plan is "
                "'warmup:measure' with warmup >= 0 and measure > 0, "
                "e.g. '40000:15000'" % (spec,)) from None
    try:
        return PRESETS[spec]
    except KeyError:
        raise ValueError(
            "unknown sampling plan %r; choose a preset from %s or give "
            "a custom 'warmup:measure' pair, e.g. '40000:15000'"
            % (spec, sorted(PRESETS))) from None


def from_env(default="standard"):
    """Select a sampling plan from $REPRO_SAMPLING (falling back to
    ``default``): a preset name or a ``warmup:measure`` pair."""
    return parse_plan(os.environ.get("REPRO_SAMPLING", default))
