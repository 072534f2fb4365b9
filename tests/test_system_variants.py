"""Pin every ``System`` variant's simulated results to recorded goldens.

The drive-loop pins run two drive loops over the *same* ``System``, so
they cannot see a change in the miss paths themselves.  This module
runs each system builder, and each per-miss feature (sharing tracking,
the event tracer, the stride prefetcher, ECC fault injection, vault or
bank offline/online events, the SILO miss predictors, directory caches
and MESI), on small synthetic 16-core traces and compares a SHA-256 of
the results with a recorded golden.  Each digest covers
``system.stats()``, ``level_counts()``,
``repr(performance())`` and ``latency_percentiles()``, plus
``sharing_breakdown()`` and the traced events when those features are
on.

Sixteen cores, because on the 2x2 mesh of a 4-core system every tile
is a memory port and off-chip hop counts are always zero.  The traces
come from ``random.Random`` and float products, not the numpy workload
generator or ``pow``, so the goldens depend on neither numpy nor libm.
``performance()`` enters at 9 significant digits: it sums per-core
IPCs with ``sum()``, whose float rounding changed in Python 3.12.  The
exact latency sums it is computed from are in the stats snapshot.

The goldens live in ``system_variants_golden.json`` next to this file.
Rewrite them only for a change that is meant to alter simulated
results::

    PYTHONPATH=src python -m tests.test_system_variants --rewrite
"""

import functools
import hashlib
import json
import os
import random
import sys

import pytest

from repro.core.systems import system_config
from repro.cores.perf_model import CoreParams
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.trace import EventTracer
from repro.sim.driver import run_system
from repro.sim.system import System
from repro.workloads.generator import CoreTrace

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "system_variants_golden.json")

NUM_CORES = 16
#: Divides every capacity: 64-block L1s and 4 KB shared LLC banks'
#: worth of sets, 256-block vaults, so a few hundred blocks per core
#: overflow every level.
SCALE = 16384
WARMUP = 300
MEASURE = 500

CODE_BASE = 0
SHARED_BASE = 1 << 12
PRIVATE_BASE = 1 << 16
#: Each core also walks its own array with a constant stride (the
#: pattern the stride prefetcher detects); the arrays sit 4096 blocks
#: apart, one prefetcher stream each.
SCAN_BASE = 1 << 20
SCAN_BLOCKS = 600
#: Share of all references that continue the core's scan.
SCAN = 0.15

#: name -> (ifetch fraction, shared-data fraction, write fraction,
#: code blocks, shared blocks, private blocks per core, skew: how many
#: uniform draws multiply into one pick, favouring low offsets)
SPECS = {
    "private": (0.15, 0.05, 0.25, 96, 64, 420, 2),
    "rw_shared": (0.10, 0.55, 0.35, 64, 160, 200, 2),
    "code": (0.55, 0.15, 0.15, 360, 96, 160, 3),
}

BUILDERS = ("baseline", "baseline_dram", "baseline_vr", "silo",
            "silo_co", "vaults_sh", "3level_sram", "3level_edram",
            "3level_silo")

#: Per-builder feature cases (all on the ``rw_shared`` spec).
FEATURES = ("track_sharing", "tracer", "prefetcher", "ecc",
            "vault_events")

#: SILO-only configuration cases: name -> config overrides.
SILO_OPTIONS = {
    "missmap": dict(local_miss_predictor="missmap"),
    "ideal_predictor": dict(local_miss_predictor="ideal"),
    "sram_dircache": dict(directory_cache="sram"),
    "ideal_dircache": dict(directory_cache="ideal"),
    "mesi": dict(protocol="mesi"),
}

ECC_PLAN = FaultPlan(seed=5, data_flip_rate=0.03, tag_flip_rate=0.03,
                     directory_flip_rate=0.03, double_bit_fraction=0.5,
                     stall_rate=0.02)
#: Ticks count every access of every core (16 x 800 per run).
EVENT_PLAN = FaultPlan(seed=0, vault_events=(
    (2000, 5, "offline"), (4000, 0, "offline"), (7000, 5, "online"),
    (9000, 11, "offline"), (12000, 0, "online")))


@functools.lru_cache(maxsize=None)
def make_traces(spec_name, seed=1):
    """One ``CoreTrace`` per core: skewed references to a shared code
    region (ifetches), a shared data region and the core's own private
    region, plus the core's strided scan.  Runs only read them, so
    cases share one copy."""
    (ifetch, shared, writes, code_n, shared_n, private_n,
     skew) = SPECS[spec_name]
    rng = random.Random(seed)
    traces = []
    for core in range(NUM_CORES):
        base = PRIVATE_BASE + core * (private_n + 37)
        scan_base = SCAN_BASE + core * 4096
        stride = 1 + core % 3
        pos = 0
        blocks = []
        flags = []
        for _ in range(WARMUP + MEASURE):
            r = rng.random()
            x = 1_000_003.0
            for _ in range(skew):
                x *= rng.random()
            pick = int(x)
            if r < ifetch:
                blocks.append(CODE_BASE + pick % code_n)
                flags.append(2)
                continue
            if r < ifetch + SCAN:
                blocks.append(scan_base + pos % SCAN_BLOCKS)
                pos += stride
            elif r < ifetch + SCAN + shared:
                blocks.append(SHARED_BASE + pick % shared_n)
            else:
                blocks.append(base + pick % private_n)
            flags.append(1 if rng.random() < writes else 0)
        traces.append(CoreTrace(core_id=core, blocks=blocks, flags=flags,
                                instr_per_event=2.5))
    return traces


def cases():
    """(case id, builder, spec, chunk, feature, config overrides)."""
    out = []
    for builder in BUILDERS:
        for spec in SPECS:
            for chunk in (1, 200):
                out.append(("%s-%s-chunk%d" % (builder, spec, chunk),
                            builder, spec, chunk, None, {}))
        for feature in FEATURES:
            out.append(("%s-%s" % (builder, feature), builder,
                        "rw_shared", 200, feature, {}))
    for name, overrides in SILO_OPTIONS.items():
        out.append(("silo-%s" % name, "silo", "rw_shared", 200, None,
                    overrides))
    return out


def digest(builder, spec, chunk, feature, overrides):
    """SHA-256 of one run's results (see the module docstring)."""
    if feature == "prefetcher":
        overrides = dict(overrides, l1_prefetcher=True)
    config = system_config(builder, num_cores=NUM_CORES, scale=SCALE,
                           **overrides)
    system = System(config, [CoreParams()] * NUM_CORES)
    shared_n = SPECS[spec][4]
    system.rw_shared_range = (SHARED_BASE, SHARED_BASE + shared_n)
    tracer = None
    if feature == "track_sharing":
        system.track_sharing = True
    elif feature == "tracer":
        tracer = system.attach_tracer(EventTracer(capacity=1 << 20))
    elif feature == "ecc":
        system.attach_faults(FaultInjector(ECC_PLAN, NUM_CORES))
    elif feature == "vault_events":
        system.attach_faults(FaultInjector(EVENT_PLAN, NUM_CORES))
    result = run_system(system, make_traces(spec), WARMUP, MEASURE,
                        chunk=chunk)
    record = {
        "stats": result.system.stats(),
        "level_counts": result.level_counts(),
        "performance": "%.9g" % result.performance(),
        "latency_percentiles": result.latency_percentiles(),
    }
    if feature == "track_sharing":
        record["sharing"] = system.sharing_breakdown()
    if tracer is not None:
        record["trace"] = [list(ev) for ev in tracer.events()]
        record["trace_summary"] = tracer.summary()
    blob = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _load_goldens():
    with open(GOLDEN) as f:
        return json.load(f)


CASES = cases()


def test_every_case_has_a_golden():
    assert sorted(_load_goldens()) == sorted(c[0] for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_variant_matches_golden(case):
    name, builder, spec, chunk, feature, overrides = case
    want = _load_goldens()[name]
    assert digest(builder, spec, chunk, feature, overrides) == want


def _run(builder, **overrides):
    config = system_config(builder, num_cores=NUM_CORES, scale=SCALE,
                           **overrides)
    system = System(config, [CoreParams()] * NUM_CORES)
    return system, lambda: run_system(system, make_traces("rw_shared"),
                                      WARMUP, MEASURE)


def test_features_fire():
    """The feature cases exercise what they name: without these, a
    golden could pin a run in which the feature never acted."""
    system, run = _run("silo")
    faults = system.attach_faults(FaultInjector(ECC_PLAN, NUM_CORES))
    tracer = system.attach_tracer(EventTracer(capacity=1 << 20))
    run()
    assert faults.uncorrectable > 0 and faults.refetches > 0
    assert faults.directory_rebuilds > 0 and faults.stall_events > 0
    assert system.vault_evictions > 0 and system.remote_forwards > 0
    assert len(tracer.events()) > 0

    system, run = _run("baseline_vr", l1_prefetcher=True)
    system.track_sharing = True
    faults = system.attach_faults(FaultInjector(EVENT_PLAN, NUM_CORES))
    run()
    assert faults.offline_events == 3 and faults.online_events == 2
    assert faults.remapped_accesses > 0
    assert system.remote_forwards > 0 and system.invalidations > 0
    assert system.prefetch_fills > 0 and system.replica_hits > 0
    assert all(system.sharing_breakdown())

    system, run = _run("silo")
    system.attach_faults(FaultInjector(EVENT_PLAN, NUM_CORES))
    run()
    assert system.faults.broadcast_snoops > 0
    assert system.faults.write_throughs > 0

    system, run = _run("baseline_dram")
    run()
    assert system.dram_cache_accesses > 0 and system.llc_writebacks > 0


def main(argv=None):
    """``--rewrite``: record every case's digest into the golden file."""
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--rewrite"]:
        print("usage: python -m tests.test_system_variants --rewrite")
        return 2
    goldens = {c[0]: digest(*c[1:]) for c in CASES}
    with open(GOLDEN, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %d goldens to %s" % (len(goldens), GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
