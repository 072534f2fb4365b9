"""Shared experiment plumbing: sampling plans, the workload x system
grid most figures sweep, statistics helpers, a plain-text table
renderer and the stdout/stderr notice policy.

Every figure that plots workloads x systems builds its points through
:func:`run_points`; only Fig. 15's and Table VI's colocation grids and
the resilience rate sweep declare their own requests.
"""

import math
import sys

from repro.sim.engine import RunRequest, run_grid
from repro.sim.sampling import from_env
from repro.workloads.scaleout import SCALEOUT_WORKLOADS

DEFAULT_SCALE = 64
DEFAULT_SEED = 7


def notice(message="", json_mode=False, stream=None):
    """Print a human-readable progress/notice line.

    Under ``--json`` (``json_mode=True``) notices go to stderr so
    stdout stays one machine-parseable document; otherwise they share
    stdout with the tables.  ``stream`` overrides the destination
    outright (tests capture it)."""
    if stream is None:
        stream = sys.stderr if json_mode else sys.stdout
    print(message, file=stream)


def resolve_plan(plan=None, default="standard"):
    """Pick the sampling plan: explicit > $REPRO_SAMPLING > default."""
    if plan is not None:
        return plan
    return from_env(default)


def run_points(systems, plan=None, seed=DEFAULT_SEED, workloads=None,
               suite=SCALEOUT_WORKLOADS, **point):
    """Resolve every system of ``systems`` (``{label:
    HierarchyConfig}``) on every workload of ``suite`` -- or of its
    subset ``workloads`` -- as one :func:`run_grid` batch; returns
    ``{workload: {label: summary}}``, both in order.

    The grid runs workload by workload, so consecutive points share a
    trace set (the generator holds the last one).  ``plan`` None
    resolves the default (:func:`resolve_plan`); ``point`` passes on to
    :meth:`RunRequest.point` (``track_sharing``, ``core_ids``, ...)."""
    plan = resolve_plan(plan)
    if workloads is None:
        workloads = list(suite)
    results = iter(run_grid(
        [RunRequest.point(config, suite[name], plan, seed, **point)
         for name in workloads for config in systems.values()]))
    return {name: {label: next(results) for label in systems}
            for name in workloads}


def geomean(values):
    """Geometric mean of positive values."""
    vals = list(values)
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def render_table(rows, columns=None, title=None, floatfmt="%.3f"):
    """Render a list of dicts as an aligned text table."""
    if not rows:
        return (title or "") + "\n(empty)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(v):
        if isinstance(v, float):
            return floatfmt % v
        return str(v)

    table = [[fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table))
              for i, c in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
