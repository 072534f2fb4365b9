"""Shared benchmark plumbing: the checkout, its environment, the
percentile rule, the host fingerprint and /proc readers."""

import json
import os
import platform
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Per-run temporary directories and span dumps (inside the checkout).
SCRATCH = os.path.join(ROOT, ".perfbench")

#: Paper's Fig. 10 verdict: SILO's geomean speedup over Baseline on
#: the scale-out suite (EXPERIMENTS.md, Fig. 10).
PAPER_FIG10_GEOMEAN = 1.28


class SetupError(Exception):
    """The checkout cannot run the benchmark (no result is printed)."""


def prepare_checkout():
    """Check that the program's source is here, scrub every ``REPRO_*``
    knob from this process (children inherit the scrubbed
    environment), point imports at the checkout's ``src`` and
    byte-compile it so imports cost the same on every run."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError("no program source at %s: run the benchmark "
                         "from the root of a full checkout" % SRC)
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import compileall
    compileall.compile_dir(SRC, quiet=2)
    os.makedirs(SCRATCH, exist_ok=True)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


class PercentileRefused(ValueError):
    """Too few samples beyond the requested percentile."""


MIN_BEYOND = 10


def percentile(values, q):
    """The ``q``-th percentile (0 < q < 100, nearest-rank on the sorted
    samples), refusing when fewer than :data:`MIN_BEYOND` samples lie
    beyond it.  Returns ``(value, sample_count)``."""
    n = len(values)
    beyond = int(n * (100 - q) / 100)
    if beyond < MIN_BEYOND:
        raise PercentileRefused(
            "p%g of %d samples has %d beyond it; at least %d needed"
            % (q, n, beyond, MIN_BEYOND))
    ordered = sorted(values)
    rank = min(n - 1, max(0, -(-n * q // 100) - 1))
    return ordered[int(rank)], n


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: Iterations of one calibration loop, and the seconds it is taken to
#: last on the reference host.  A small shared-CPU host's speed drifts
#: by up to 2x over minutes; a stretch of work between two calibrations
#: is reported in reference-host seconds, scaled by those two loops.
CALIBRATION_N = 50_000
CALIBRATION_REF_S = 0.15


def calibration_loop(n=CALIBRATION_N):
    """Seconds for a fixed pure-Python mix of hashing, dict and list
    work (the kind the simulator and server do)."""
    table = {}
    counts = [0] * 4096
    x = 12345
    t0 = time.perf_counter()
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7fffffff
        key = x & 8191
        hit = table.get(key)
        table[key] = i if hit is None else hit + 1
        counts[key & 4095] += 1
        if len(table) > 4096:
            table.pop(next(iter(table)))
    return time.perf_counter() - t0


class HostClock:
    """Times consecutive stretches of work with a calibration loop
    between each two.  :meth:`lap` ends a stretch and returns its raw
    seconds and its reference-host seconds (raw scaled by the mean of
    the calibrations right before and right after it); calibration time
    is in no stretch."""

    def __init__(self):
        self._cal = calibration_loop()
        self._t0 = time.perf_counter()

    def start(self):
        """Begin the next stretch now; time since the last lap is not
        counted."""
        self._t0 = time.perf_counter()

    def lap(self):
        raw = time.perf_counter() - self._t0
        cal = calibration_loop()
        ref = raw * 2.0 * CALIBRATION_REF_S / (self._cal + cal)
        self._cal = cal
        self._t0 = time.perf_counter()
        return raw, ref


# ---------------------------------------------------------------------------
# host and process observations
# ---------------------------------------------------------------------------


def load1():
    return os.getloadavg()[0]


def host_fingerprint():
    """What a result must be compared under: CPU count, interpreter and
    numpy versions, the code's git sha (None outside a git checkout)
    and its content fingerprint."""
    import numpy

    from repro.obs.manifest import git_sha
    from repro.sim.engine import code_fingerprint

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "code_fingerprint": code_fingerprint()[:16],
    }


_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid):
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid):
    """``VmHWM`` (peak resident set) of ``pid`` in MB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM for pid %d" % pid)


def emit(result, metrics_table, host, report_lines):
    """Print the human report, then the one-line JSON verdict last."""
    print("host %s" % json.dumps(host, sort_keys=True))
    for line in report_lines:
        print(line)
    for name, unit in metrics_table.items():
        print("metric %-40s %.6g %s" % (name, result["metrics"][name],
                                        unit))
    print("attempted %d failed %d correct %s"
          % (result["attempted"], result["failed"], result["correct"]))
    doc = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name],
                           "unit": unit}
                    for name, unit in metrics_table.items()},
    }
    sys.stdout.flush()
    print(json.dumps(doc, sort_keys=True))
    sys.stdout.flush()
