"""One equivalence oracle: every route to a result gives the same result.

A run is a pure function of its :class:`RunRequest`, so every route
that resolves one must agree bit for bit:

* the serial engine, ``RunEngine(jobs=1)``, filling a cold
  ``RunCache``;
* ``execute_request`` under the reference drive loop of
  ``tests/drive_reference.py``, which sends every event through
  ``System.access`` (the inline L1-hit probe of ``_drive`` against the
  loop it replaced);
* a ``LocalPoolTransport``, whose worker processes generate their own
  traces;
* that cache, warm (it simulates nothing);
* an in-process ``JobServer`` over a pool, in both wire formats;
* an observation session with stats, trace, manifests, telemetry and
  the profiler on.

One derandomized Hypothesis strategy draws a seed per batch, and a
``random.Random`` on that seed builds one to three requests,
duplicates allowed, over every system builder at 1 or 4 cores; SILO's
predictor, directory-cache and MESI options, the prefetcher, victim
replication and memory queueing; vault size and scale; the scale-out
and enterprise workloads plus the L1-resident and write-heavy
drive-loop specs; colocation, seed, plan (warm-up 0 included), chunk
and sharing tracking; fault plans (none, inactive, rates, vault
offline/online events, and events past the window); and estimate mode
wherever ``can_estimate`` allows it.  The checks are exact:

* every route's summaries, with host clocks and keys dropped, are the
  same JSON byte for byte;
* the two live routes' ``stats()`` are equal;
* the reference route's live ``RunResult`` gives the engine's summary's
  value on every evaluation;
* a plan that fires nothing in the run (no rate, no vault event before
  its last tick) gives the summary of no plan.

Estimate-mode requests skip the reference and observed routes; their
accuracy against simulation is ``tests/test_estimator_differential.py``'s.
The explicit examples are the fig3/fig10 grid points, the drive-loop
fast-path points, the observability and fault inertness points, and two
estimate-mode points.
"""

import json
import random
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.analytic.estimator import can_estimate
from repro.core.systems import SYSTEM_LABELS, system_config
from repro.faults.plan import FaultPlan
from repro.obs.session import observe
from repro.serve.client import ServerClient
from repro.sim import driver
from repro.sim.config import LLC_PRIVATE_VAULT, LLC_SHARED, HierarchyConfig
from repro.sim.engine import (LocalPoolTransport, RunCache, RunEngine,
                              RunRequest, RunSummary, execute_request)
from repro.sim.sampling import SamplingPlan
from repro.workloads.enterprise import ENTERPRISE_WORKLOADS
from repro.workloads.scaleout import SCALEOUT_WORKLOADS
from tests.drive_reference import HOT_SPEC, WRITE_SPEC, reference_run_drive
from tests.test_serve import ServerThread

#: to_dict fields that measure the host or name the run, not the
#: simulation.
HOST_FIELDS = ("warmup_wall_s", "measure_wall_s", "request_key")

#: Evaluations that must agree between an engine summary and a live
#: run, as (name, call) pairs.
EVALUATIONS = (
    ("per_core_ipc", lambda s: s.per_core_ipc()),
    ("performance", lambda s: s.performance()),
    ("llc_scale", lambda s: s.performance_with_llc_scale(1.5)),
    ("rw_multiplier", lambda s: s.performance_with_rw_multiplier(3.0)),
    ("ipc_of", lambda s: s.ipc_of([s.cores[-1].core_id])),
    ("level_counts", lambda s: s.level_counts()),
    ("instructions", lambda s: s.instructions()),
    ("llc_breakdown", lambda s: s.llc_breakdown()),
    ("llc_mpki", lambda s: s.llc_mpki()),
    ("max_core_cycles", lambda s: s.max_core_cycles()),
    ("llc_power_w", lambda s: s.llc_power_w(1.0)),
    ("latency_percentiles", lambda s: s.latency_percentiles()),
    ("driven_events", lambda s: s.driven_events()),
)

WORKLOADS = {**SCALEOUT_WORKLOADS, **ENTERPRISE_WORKLOADS,
             HOT_SPEC.name: HOT_SPEC, WRITE_SPEC.name: WRITE_SPEC}

#: A tick no run here reaches: a vault event there never fires.
NEVER = 10 ** 12


def summary_json(summary, drop_faults=False):
    """A summary's JSON with host clocks and its key dropped (and with
    ``drop_faults``, the fault injector's counters)."""
    data = summary.to_dict()
    for name in HOST_FIELDS:
        del data[name]
    if drop_faults:
        data["counters"].pop("faults", None)
    return json.dumps(data, sort_keys=True)


def idle(plan, summary):
    """Whether ``plan`` fired nothing in the run ``summary`` took: it
    draws at no rate and schedules no vault event before the run's
    last fault-clock tick (an inactive plan attaches no injector and
    leaves no counters).  The window's counters cannot tell: they are
    reset after the warm-up, whose stalls and flips still shape the
    measured window."""
    rates = (plan.data_flip_rate, plan.tag_flip_rate,
             plan.directory_flip_rate, plan.stall_rate)
    ticks = summary.counters.get("faults", {}).get("accesses", 0)
    return not any(rates) and all(ev.tick > ticks
                                  for ev in plan.vault_events)


# ---------------------------------------------------------------------------
# the strategy
# ---------------------------------------------------------------------------


def random_config(rng):
    name = rng.choice(sorted(SYSTEM_LABELS))
    cores = rng.choice((1, 4))
    scale = rng.choice((256, 512, 1024))
    overrides = {"l1_prefetcher": rng.choice((False, True)),
                 "memory_queueing": rng.choice((False, True))}
    if system_config(name, num_cores=cores).llc_kind == LLC_PRIVATE_VAULT:
        overrides.update(
            local_miss_predictor=rng.choice((False, True, "missmap")),
            directory_cache=rng.choice((False, True, "sram")),
            protocol=rng.choice(("moesi", "mesi")),
            llc_size_bytes=rng.choice((64, 256, 512)) << 20)
    else:
        overrides["victim_replication"] = rng.choice((False, True))
    return system_config(name, num_cores=cores, scale=scale, **overrides)


def random_fault_plan(rng, cores):
    kind = rng.choice(("none", "inactive", "rates", "events",
                       "past the window"))
    seed = rng.randint(0, 99)
    if kind == "none":
        return None
    if kind == "inactive":
        return FaultPlan(seed=seed)
    if kind == "past the window":
        return FaultPlan(seed=seed, vault_events=(
            (NEVER, rng.randrange(cores), "offline"),))
    if kind == "events":
        target = rng.randrange(cores)
        off = rng.randint(0, 3000)
        events = [(off, target, "offline")]
        if rng.choice((False, True)):
            events.append((off + rng.randint(1, 3000), target, "online"))
        return FaultPlan(seed=seed, vault_events=tuple(events))
    rates = (0.0, 1e-3, 0.05)
    return FaultPlan(seed=seed, data_flip_rate=rng.choice(rates),
                     tag_flip_rate=rng.choice(rates),
                     directory_flip_rate=rng.choice(rates),
                     double_bit_fraction=rng.choice((0.0, 0.5, 1.0)),
                     stall_rate=rng.choice(rates),
                     target=rng.choice((None, rng.randrange(cores))))


def random_request(rng):
    config = random_config(rng)
    cores = config.num_cores
    plan = SamplingPlan(rng.choice((0, 300, 1000)), rng.choice((100, 400)))
    common = dict(plan=plan, seed=rng.randint(0, 2 ** 16),
                  chunk=rng.choice((1, 7, 200)),
                  faults=random_fault_plan(rng, cores))
    names = sorted(WORKLOADS)
    if cores > 1 and rng.choice((False, True)):
        split = rng.randint(1, cores - 1)
        return RunRequest.colocation(
            config, [(WORKLOADS[rng.choice(names)], range(split)),
                     (WORKLOADS[rng.choice(names)], range(split, cores))],
            **common)
    req = RunRequest.point(config, WORKLOADS[rng.choice(names)],
                           core_ids=rng.choice((None, (0,))),
                           track_sharing=rng.choice((False, True)),
                           **common)
    if can_estimate(req) and rng.choice((False, True)):
        req = replace(req, mode="estimate")
    return req


def batch_from_seed(seed):
    """One to three requests, some of them drawn twice, all drawn from
    a ``random.Random`` on ``seed``."""
    rng = random.Random(seed)
    size = rng.randint(1, 3)
    distinct = [random_request(rng) for _ in range(rng.randint(1, size))]
    return distinct + [rng.choice(distinct)
                       for _ in range(size - len(distinct))]


#: Each generated batch comes from its own seed: Hypothesis mutates
#: earlier examples into later ones, so batches drawn field by field
#: came out as near-copies of each other.
batches = st.integers(0, 2 ** 32 - 1).map(batch_from_seed)


# ---------------------------------------------------------------------------
# explicit examples: the points the per-feature pins check
# ---------------------------------------------------------------------------

PLAN = SamplingPlan(1500, 800)
HOT_PLAN = SamplingPlan(4000, 2000)


def _point(config, spec, plan=PLAN, seed=7, **kwargs):
    if isinstance(config, str):
        config = system_config(config, num_cores=4, scale=512)
    return RunRequest.point(config, spec, plan, seed, **kwargs)


def _hot(name, spec=HOT_SPEC, l1_prefetcher=False, **kwargs):
    """A drive-loop fast-path point: 4 cores at scale 64."""
    config = system_config(name, num_cores=4, scale=64,
                           l1_prefetcher=l1_prefetcher)
    return _point(config, spec, HOT_PLAN, **kwargs)


def _raw(name, kind):
    """The bare 4-core, scale-512 HierarchyConfig the inertness and
    metamorphic pins run on."""
    return HierarchyConfig(name=name, num_cores=4, scale=512,
                           llc_kind=kind)


def _fig_point(system, workload, **kwargs):
    """A fig3/fig10 grid point: 16 cores at scale 512."""
    return _point(system_config(system, scale=512),
                  SCALEOUT_WORKLOADS[workload], **kwargs)


WEB_SEARCH = SCALEOUT_WORKLOADS["web_search"]
DATA_SERVING = SCALEOUT_WORKLOADS["data_serving"]
ECC_PLAN = FaultPlan(seed=1, data_flip_rate=0.05, tag_flip_rate=0.05,
                     double_bit_fraction=1.0)
#: Plans that fire nothing: an inactive one, and one whose only event
#: falls past the run (the injector attached, every hook running).
INACTIVE = FaultPlan(seed=99)
PAST_THE_RUN = FaultPlan(seed=0, vault_events=((NEVER, 0, "offline"),))
SHARED = _raw("inert", LLC_SHARED)
VAULTS = _raw("inert", LLC_PRIVATE_VAULT)

EXAMPLES = [
    # fig10, Baseline and SILO on web_search and data_serving
    [_fig_point("baseline", "web_search"), _fig_point("silo", "web_search"),
     _fig_point("baseline", "data_serving")],
    [_fig_point("silo", "data_serving")],
    # fig3 over the five scale-out workloads (sharing tracked)
    [_fig_point("baseline", w, track_sharing=True)
     for w in ("web_search", "data_serving", "web_frontend")],
    [_fig_point("baseline", w, track_sharing=True)
     for w in ("mapreduce", "sat_solver")],
    # an engine summary against a direct run: sharing, active faults
    [_point("baseline", WEB_SEARCH, track_sharing=True),
     _point("silo", WEB_SEARCH, track_sharing=True),
     _point("silo", WEB_SEARCH, faults=ECC_PLAN)],
    # the drive loop's fast path: an L1-resident trace, an LLC-stressing
    # one, every chunk, and the per-access features
    [_hot("baseline"), _hot("silo"), _hot("3level_silo")],
    [_hot("baseline", SCALEOUT_WORKLOADS["web_frontend"]),
     _hot("silo", SCALEOUT_WORKLOADS["web_frontend"])],
    [_hot("silo", chunk=50), _hot("silo", chunk=800)],
    [_hot("baseline", l1_prefetcher=True),
     _hot("silo", faults=FaultPlan(seed=3, tag_flip_rate=1e-3)),
     _hot("silo", faults=FaultPlan())],
    # observability (stats, trace, manifests, telemetry, profiler) and
    # seed stability
    [_point(SHARED, WEB_SEARCH, seed=3), _point(SHARED, WEB_SEARCH, seed=11),
     _point(VAULTS, DATA_SERVING, seed=3)],
    [_point(VAULTS, DATA_SERVING, seed=11), _point(VAULTS, WEB_SEARCH, seed=9),
     _point(_raw("prof", LLC_PRIVATE_VAULT), WEB_SEARCH, seed=5)],
    [_point(SHARED, WEB_SEARCH), _point(VAULTS, DATA_SERVING),
     _point(HierarchyConfig(name="t", num_cores=4, scale=512,
                            memory_queueing=False),
            WEB_SEARCH, SamplingPlan(500, 500), seed=5)],
    [_point(_raw("metamorphic", LLC_SHARED), DATA_SERVING),
     _point(_raw("metamorphic", LLC_PRIVATE_VAULT), DATA_SERVING)],
    # the estimate tier on both organizations
    [_point(name, WEB_SEARCH, mode="estimate")
     for name in ("baseline", "silo")],
    # fault plans that fire nothing
    [_point(_raw("fault_inert", LLC_SHARED), WEB_SEARCH, seed=seed,
            faults=INACTIVE) for seed in (3, 11)]
    + [_point(_raw("fault_inert", LLC_PRIVATE_VAULT), DATA_SERVING, seed=3,
              faults=INACTIVE)],
    [_point(_raw("fault_inert", LLC_PRIVATE_VAULT), DATA_SERVING, seed=11,
            faults=INACTIVE)]
    + [_point(_raw("fault_inert", kind), DATA_SERVING, seed=9,
              faults=PAST_THE_RUN)
       for kind in (LLC_SHARED, LLC_PRIVATE_VAULT)],
]


def with_examples(test):
    for batch in reversed(EXAMPLES):
        test = example(batch=batch)(test)
    return test


# ---------------------------------------------------------------------------
# the routes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pool():
    pool = LocalPoolTransport(2)
    pool.start()
    yield pool
    pool.stop()


@pytest.fixture(scope="module")
def server(pool):
    # The pool forked its workers first, so none holds the server's
    # socket.
    with ServerThread(RunEngine(jobs=1, transport=pool)) as server:
        yield server


def reference(request):
    """The live RunResult of ``request`` under the reference loop."""
    with mock.patch.object(driver, "_drive", reference_run_drive):
        return execute_request(request)


def observed(request):
    """``request``'s summary from an engine inside a session with every
    observer on, and the live System it ran on."""
    with observe(trace_capacity=256, collect_manifests=True,
                 collect_stats=True, telemetry_every=100,
                 profile=True) as session:
        (summary,) = RunEngine(jobs=1).run([request])
    # every observer saw the run
    assert session.runs and session.telemetry
    assert session.last_system.tracer is not None
    assert session.profiler.report()["driven_events"] \
        == summary.driven_events()
    return summary, session.last_system


def worker_routes(batch, pool, server):
    """The summaries of ``batch`` from the routes whose points the
    pool's workers simulate, by route name: the pool itself, and the
    job server over it posted the whole batch at once in each wire
    format."""
    fanned = RunEngine(jobs=1, transport=pool)
    routes = {"pool": fanned.run(batch)}
    assert fanned.executed + fanned.estimated == fanned.unique_points
    with ServerClient(server.url) as client, \
            ThreadPoolExecutor(len(batch)) as threads:
        assert client.health()["transport"] == pool.describe()
        for fmt in ("pickle", "json"):
            routes["server/" + fmt] = list(threads.map(
                lambda req: client.submit(req, fmt=fmt)[0]["summary"],
                batch))
    return routes


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(batch=batches)
@with_examples
def test_every_route_gives_the_same_result(pool, server, batch):
    # The pool's workers simulate their routes' copies while this
    # process runs the serial engine, the cache and the reference
    # loop.  The observed route opens a session, which every engine in
    # the process would see, so it runs once the workers are done.
    with ThreadPoolExecutor(1) as background, \
            tempfile.TemporaryDirectory() as directory:
        workers = background.submit(worker_routes, batch, pool, server)
        # the serial engine, filling a cold cache, then the warm cache
        engine = RunEngine(jobs=1, cache=RunCache(directory))
        serial = engine.run(batch)
        distinct = {req.key(): (req, summary)
                    for req, summary in zip(batch, serial)}
        assert engine.executed + engine.estimated \
            == engine.cache_misses == len(distinct)
        warm = RunEngine(jobs=1, cache=RunCache(directory))
        routes = {"warm cache": warm.run(batch)}
        assert warm.cache_hits == warm.unique_points
        assert warm.executed == warm.estimated == 0
        live = {key: reference(req)
                for key, (req, _summary) in distinct.items()
                if req.mode != "estimate"}
        routes.update(workers.result())
    expected = [summary_json(s) for s in serial]
    for route, summaries in routes.items():
        assert [summary_json(s) for s in summaries] == expected, route

    for key, (req, summary) in distinct.items():
        if req.faults is not None and idle(req.faults, summary):
            # an inactive plan attaches no injector, so it leaves no
            # counters of its own either
            (plain,) = RunEngine(jobs=1).run([replace(req, faults=None)])
            assert summary_json(summary, drop_faults=req.faults.active()) \
                == summary_json(plain), "a plan that fired nothing"
        if req.mode == "estimate":
            continue
        assert type(summary) is RunSummary
        assert type(live[key]) is driver.RunResult
        assert summary_json(live[key]) == summary_json(summary), \
            "reference"
        for name, evaluate in EVALUATIONS:
            assert evaluate(live[key]) == evaluate(summary), name
        watched, system = observed(req)
        assert summary_json(watched) == summary_json(summary), "observed"
        assert system.stats() == live[key].system.stats()


def test_active_plan_changes_something():
    """The idle-plan relation is not vacuous: a plan whose faults fire
    changes the summary beyond its own counters."""
    engine = RunEngine(jobs=1)
    req = _point(_raw("fault_inert", LLC_PRIVATE_VAULT), DATA_SERVING,
                 seed=3, faults=FaultPlan(seed=1, data_flip_rate=0.5,
                                          double_bit_fraction=1.0))
    noisy, plain = engine.run([req, replace(req, faults=None)])
    assert noisy.counters["faults"]["uncorrectable"] > 0
    assert summary_json(noisy, drop_faults=True) != summary_json(plain)
