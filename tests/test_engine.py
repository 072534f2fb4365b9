"""Run-engine guarantees: serial, parallel and cache-replayed grids
produce bit-identical results; batches dedup; RunSummary round-trips
losslessly; requests key by content and refuse hostile input; the
drive loop, with its inline L1-hit probe, matches the pre-optimization
reference loop exactly, call for call; the interleave chunk is
validated; the run cache prunes by LRU; observation sessions still see
what they need.  ``tests/test_oracle.py`` checks that every route to
a result agrees bit for bit on random requests.
"""

import dataclasses
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import threading
import typing

import pytest

import repro
from repro.core.systems import SYSTEM_LABELS, system_config
from repro.experiments.isolation import _ws_request
from repro.experiments.mixes import _mix_request
from repro.experiments.performance import fig10_scaleout
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.obs import session as obs_session
from repro.obs.trace import EventTracer
from repro.serve import proto
from repro.sim import engine as engine_mod
from repro.sim.driver import (DEFAULT_CHUNK, _drive, _per_core_state,
                              run_system, use_chunk)
from repro.sim.engine import (RunCache, RunEngine, RunRequest, RunSummary,
                              cache_max_bytes_from_env, code_fingerprint,
                              engine_from_env, parse_size_bytes,
                              request_budget, resolve_cache_dir, run_grid,
                              use_engine)
from repro.sim.sampling import PRESETS, SamplingPlan
from repro.sim.system import System
from repro.workloads.generator import generate_traces
from repro.workloads import (ENTERPRISE_WORKLOADS, SCALEOUT_WORKLOADS,
                             SPEC_APPS, SPEC_MIXES)
from tests.drive_reference import (HOT_SPEC, WRITE_SPEC, reference_drive,
                                   reference_state)

PLAN = SamplingPlan(1500, 800)
SCALE = 512
WORKLOADS = ("web_search", "data_serving")
SYSTEMS = ("baseline", "silo")


def _fig10(engine):
    with use_engine(engine):
        return fig10_scaleout(plan=PLAN, scale=SCALE, seed=7,
                              systems=SYSTEMS, workloads=WORKLOADS)


def _point(seed=7, workload="web_search", track_sharing=False):
    return RunRequest.point(
        system_config("baseline", num_cores=4, scale=SCALE),
        SCALEOUT_WORKLOADS[workload], PLAN, seed,
        track_sharing=track_sharing)


# ---------------------------------------------------------------------------
# Determinism: serial == parallel == cache-replayed (exact equality)
# ---------------------------------------------------------------------------


def test_fig10_serial_parallel_cached_bit_identical(tmp_path):
    serial = _fig10(RunEngine(jobs=1))

    parallel_engine = RunEngine(jobs=4)
    parallel = _fig10(parallel_engine)
    assert parallel == serial          # exact float equality, no tolerance
    assert parallel_engine.executed > 0

    cold = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    assert _fig10(cold) == serial
    assert cold.cache_misses == cold.executed > 0

    warm = RunEngine(jobs=1, cache=RunCache(str(tmp_path)))
    assert _fig10(warm) == serial      # replayed entirely from cache
    assert warm.executed == 0
    assert warm.cache_hits == warm.unique_points > 0


def test_batch_dedup_simulates_duplicates_once():
    engine = RunEngine(jobs=1)
    a, b = engine.run([_point(), _point()])
    assert engine.requests == 2
    assert engine.unique_points == 1
    assert engine.executed == 1
    assert a is b


def test_run_grid_uses_env_default_engine(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    (summary,) = run_grid([_point()])
    assert summary.performance() > 0


# ---------------------------------------------------------------------------
# RunSummary fidelity and serialization
# ---------------------------------------------------------------------------


#: Evaluations that must agree between an engine summary and a direct
#: run, as (name, call) pairs.
_EVALUATIONS = (
    ("per_core_ipc", lambda s: s.per_core_ipc()),
    ("performance", lambda s: s.performance()),
    ("llc_scale", lambda s: s.performance_with_llc_scale(1.5)),
    ("rw_multiplier", lambda s: s.performance_with_rw_multiplier(3.0)),
    ("ipc_of", lambda s: s.ipc_of([1, 3])),
    ("level_counts", lambda s: s.level_counts()),
    ("instructions", lambda s: s.instructions()),
    ("llc_breakdown", lambda s: s.llc_breakdown()),
    ("llc_mpki", lambda s: s.llc_mpki()),
    ("max_core_cycles", lambda s: s.max_core_cycles()),
    ("llc_power_w", lambda s: s.llc_power_w(1.0)),
    ("latency_percentiles", lambda s: s.latency_percentiles()),
    ("driven_events", lambda s: s.driven_events()),
)


def _simulated_fields(summary):
    d = summary.to_dict()
    for name in ("warmup_wall_s", "measure_wall_s", "request_key"):
        del d[name]
    return d


def test_engine_summary_matches_a_direct_run():
    """The engine's summary and ``simulate``'s RunResult are one result
    model: the same fields (host clocks and the key aside) and the same
    value from every evaluation, on Baseline and SILO with sharing
    tracked and on SILO under an active fault plan.  The engine's is a
    plain RunSummary that pickles without the System."""
    from repro.sim.driver import RunResult, simulate
    spec = SCALEOUT_WORKLOADS["web_search"]
    faults = FaultPlan(seed=1, data_flip_rate=0.05, tag_flip_rate=0.05,
                       double_bit_fraction=1.0)
    points = [
        RunRequest.point(system_config(name, num_cores=4, scale=SCALE),
                         spec, PLAN, 7, **kwargs)
        for name, kwargs in (("baseline", {"track_sharing": True}),
                             ("silo", {"track_sharing": True}),
                             ("silo", {"faults": faults}))]
    for req, summary in zip(points, RunEngine(jobs=1).run(points)):
        live = simulate(req.config, spec, PLAN, seed=7,
                        track_sharing=req.track_sharing,
                        faults=req.faults)
        assert type(summary) is RunSummary
        assert isinstance(live, RunResult)
        assert _simulated_fields(summary) == _simulated_fields(live)
        for name, evaluate in _EVALUATIONS:
            assert evaluate(summary) == evaluate(live), name
        assert summary.seed == live.seed == 7
        blob = pickle.dumps(summary)
        assert b"repro.sim.system" not in blob
        assert pickle.loads(blob) == summary
    assert summary.counters["faults"]["injected"] > 0


def test_summary_pickle_round_trip():
    (summary,) = RunEngine(jobs=1).run([_point()])
    clone = pickle.loads(pickle.dumps(summary))
    assert clone.to_dict() == summary.to_dict()
    assert clone.performance() == summary.performance()


def test_summary_keeps_the_driven_cores_histograms_merged():
    """A summary holds one latency histogram per level: its driven
    cores' live histograms merged in driven-core order (so the float
    ``total`` adds up in that order), and no core holds one of its
    own."""
    from repro.cores.perf_model import NUM_LEVELS
    from repro.obs.stats import Distribution
    result = engine_mod.execute_request(_point_with(core_ids=(3, 0, 2)))
    assert result.core_ids == [3, 0, 2]
    assert len(result.latency_hist) == NUM_LEVELS
    for lvl, state in enumerate(result.latency_hist):
        merged = Distribution()
        for core in (3, 0, 2):
            merged.merge(result.system.cores[core].latency_hist[lvl])
        assert state == {"max_bucket": merged.max_bucket,
                         "buckets": merged.buckets,
                         "count": merged.count, "total": merged.total,
                         "min": merged.min, "max": merged.max}
    assert sum(state["count"] for state in result.latency_hist) > 0
    assert all("latency_hist" not in core
               for core in result.to_dict()["cores"])


def test_summary_to_dict_is_asdict():
    """``to_dict`` builds the dict ``dataclasses.asdict`` gives, without
    its deep copies: equal, with the same JSON bytes, for a simulated
    summary and for an estimate."""
    (simulated,) = RunEngine(jobs=1).run([_point(track_sharing=True)])
    (estimated,) = RunEngine(jobs=1, mode="estimate").run([_point()])
    assert (simulated.mode, estimated.mode) == ("simulate", "estimate")
    for summary in (simulated, estimated):
        plain = summary.to_dict()
        assert plain == dataclasses.asdict(summary)
        assert json.dumps(plain) == json.dumps(dataclasses.asdict(summary))


def test_summary_json_round_trip():
    (summary,) = RunEngine(jobs=1).run([_point(track_sharing=True)])
    clone = RunSummary.from_dict(json.loads(json.dumps(summary.to_dict())))
    assert clone.performance() == summary.performance()
    assert clone.latency_percentiles() == summary.latency_percentiles()
    assert clone.sharing == summary.sharing
    assert clone.manifest()["performance"] == \
        summary.manifest()["performance"]


# ---------------------------------------------------------------------------
# Request keying and cache invalidation
# ---------------------------------------------------------------------------


def test_request_key_is_stable_and_content_addressed():
    assert _point().key("fp") == _point().key("fp")
    assert _point().key("fp") != _point(seed=8).key("fp")
    assert _point().key("fp") != _point(workload="data_serving").key("fp")
    assert _point().key("fp") != _point(track_sharing=True).key("fp")
    # a code change (new fingerprint) invalidates every key
    assert _point().key("fp") != _point().key("fp2")
    assert len(code_fingerprint()) == 64


def test_fault_plan_is_part_of_the_request_key():
    from repro.faults.plan import FaultPlan, use_plan
    faulted = FaultPlan(seed=1, data_flip_rate=1e-3)
    assert (_point().key("fp")
            != _point_with(faults=faulted).key("fp"))
    # two different plans key differently too
    assert (_point_with(faults=faulted).key("fp")
            != _point_with(faults=FaultPlan(seed=2,
                                            data_flip_rate=1e-3)).key("fp"))
    # the ambient plan is resolved at request construction
    with use_plan(faulted):
        assert _point().key("fp") == _point_with(faults=faulted).key("fp")


def _point_with(**kwargs):
    return RunRequest.point(
        system_config("baseline", num_cores=4, scale=SCALE),
        SCALEOUT_WORKLOADS["web_search"], PLAN, 7, **kwargs)


def test_cached_fault_free_summary_not_replayed_for_faulted_request(
        tmp_path):
    """Regression: a faulted request must never be served a fault-free
    cached summary (the plan is keyed, so it misses and simulates)."""
    from repro.faults.plan import FaultPlan
    cache = RunCache(str(tmp_path))
    warm_engine = RunEngine(jobs=1, cache=cache)
    (clean,) = warm_engine.run([_point()])           # cache fault-free
    assert warm_engine.executed == 1

    faulted_req = _point_with(faults=FaultPlan(
        seed=1, data_flip_rate=0.05, tag_flip_rate=0.05,
        double_bit_fraction=1.0))
    engine = RunEngine(jobs=1, cache=cache)
    (faulted,) = engine.run([faulted_req])
    assert engine.cache_hits == 0                    # keyed apart
    assert engine.executed == 1
    assert "faults" in faulted.counters
    assert faulted.counters["faults"]["injected"] > 0
    assert faulted.performance() != clean.performance()

    # and the faulted summary replays only for the same plan
    replay = RunEngine(jobs=1, cache=cache)
    (again,) = replay.run([faulted_req])
    assert replay.cache_hits == 1 and replay.executed == 0
    assert again.performance() == faulted.performance()


def test_fingerprint_covers_fault_sources():
    """The code fingerprint walks every repro source file, so editing
    repro.faults invalidates cached summaries."""
    from repro.sim.engine import fingerprint_files
    files = fingerprint_files()
    assert any(f.endswith("faults/injector.py") for f in files)
    assert any(f.endswith("faults/ecc.py") for f in files)
    assert any(f.endswith("faults/plan.py") for f in files)
    assert any(f.endswith("sim/system.py") for f in files)


def test_cache_tolerates_corruption(tmp_path):
    cache = RunCache(str(tmp_path))
    key = _point().key("fp")
    assert cache.get(key) is None
    path = cache.put(key, RunEngine(jobs=1).run([_point()])[0])
    with open(path, "wb") as f:
        f.write(b"not a pickle")
    assert cache.get(key) is None   # corrupt entry reads as a miss


def test_resolve_cache_dir_env_policy(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/silo-cache-test")
    assert resolve_cache_dir(default=None) == "/tmp/silo-cache-test"
    monkeypatch.setenv("REPRO_CACHE_DIR", "")   # empty disables
    assert resolve_cache_dir(default="~/.cache/silo-repro") is None
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert resolve_cache_dir(default=None) is None


# ---------------------------------------------------------------------------
# Observation sessions: live collection bypasses cache and pool
# ---------------------------------------------------------------------------


def test_stats_session_forces_live_execution(tmp_path):
    cache = RunCache(str(tmp_path))
    RunEngine(jobs=1, cache=cache).run([_point()])   # warm the cache
    engine = RunEngine(jobs=4, cache=cache)
    with obs_session.observe(collect_stats=True) as session:
        engine.run([_point()])
    assert session.last_system is not None   # a live System was built
    assert engine.cache_hits == 0
    assert engine.executed == 1


def test_manifest_session_records_cached_runs(tmp_path):
    cache = RunCache(str(tmp_path))
    RunEngine(jobs=1, cache=cache).run([_point()])
    with obs_session.observe(collect_manifests=True) as session:
        RunEngine(jobs=1, cache=cache).run([_point()])
    (record,) = session.runs
    assert record["seed"] == 7
    assert record["engine"]["request_key"]
    assert record["throughput"]["events_per_sec"] > 0


def test_pool_workers_run_with_no_session():
    # A pool forked inside a manifest-only session must not hand its
    # workers a copy of the session: what they note there, nothing
    # reads.  The parent notes each transported point once.
    pool = engine_mod.LocalPoolTransport(jobs=2)
    with obs_session.observe(collect_manifests=True) as session:
        pool.start()
        try:
            seen = [pool._pool.submit(obs_session.current_session)
                    .result() for _ in range(4)]
            engine = RunEngine(jobs=1, transport=pool)
            engine.run([_point(seed=s) for s in (7, 8)])
        finally:
            pool.stop()
    assert seen == [None] * 4
    assert sorted(r["seed"] for r in session.runs) == [7, 8]


# ---------------------------------------------------------------------------
# Drive loop: the inline L1-hit probe is bit-identical to the reference
# ---------------------------------------------------------------------------

#: Scale of the small specs below: their footprints then span many L1
#: sets.
HOT_SCALE = 64

#: name -> (spec, scale) of the drive-loop pin's workloads.
PIN_SPECS = {"web_search": (SCALEOUT_WORKLOADS["web_search"], SCALE),
             "l1_resident": (HOT_SPEC, HOT_SCALE),
             "write_heavy": (WRITE_SPEC, HOT_SCALE)}


def _pin_traces(spec_name):
    """Four-core traces of a pin spec."""
    spec, scale = PIN_SPECS[spec_name]
    return generate_traces(spec, num_cores=4,
                           events_per_core=PLAN.total_events,
                           scale=scale, seed=7)


def _assert_same_state(fast, ref, fast_times, ref_times):
    assert fast_times == ref_times           # exact float equality
    assert fast.stats() == ref.stats()
    assert fast.block_readers == ref.block_readers
    assert fast.block_writers == ref.block_writers
    if ref.tracer is not None:
        assert fast.tracer.events() == ref.tracer.events()
        assert fast.tracer.counts == ref.tracer.counts
    for fc, rc in zip(fast.cores, ref.cores):
        assert fc.data_count == rc.data_count
        assert fc.ifetch_count == rc.ifetch_count
        assert fc.data_latency == rc.data_latency
        assert fc.ifetch_latency == rc.ifetch_latency
        assert fc.rw_shared_latency == rc.rw_shared_latency


def _pin_drive(sys_name, spec_name, chunk, track_sharing=False,
               faults=None, tracer=False, **overrides):
    """Drive one system with ``_drive`` and a twin with the reference
    loop over the same traces, in two phases like ``run_system`` (an
    unmeasured warm-up, a stats reset, a measured window), and assert
    they agree bit for bit after each phase.  Returns the calls
    ``_drive`` made -- ``access``: to ``System.access``; ``miss``:
    straight to ``_miss``; ``access_miss``: the ``_miss`` entries made
    inside an ``access`` call (an L1 miss or a prefetch sent through
    ``access``) -- and the events it drove."""
    spec, scale = PIN_SPECS[spec_name]
    config = system_config(sys_name, num_cores=4, scale=scale,
                           **overrides)
    traces, layout = _pin_traces(spec_name)
    mid = [tr.prewarm_events + PLAN.warmup_events for tr in traces]
    ends = [len(tr) for tr in traces]
    twins = []
    for _ in range(2):
        system = System(config, [spec.core] * 4)
        system.rw_shared_range = layout.rw_shared_range
        system.track_sharing = track_sharing
        if faults is not None:
            system.attach_faults(FaultInjector(faults, 4))
        if tracer:
            system.attach_tracer(EventTracer(capacity=1 << 16))
        twins.append((system, [0.0] * 4))
    (fast, fast_times), (ref, ref_times) = twins
    calls = {"access": 0, "miss": 0, "access_miss": 0}
    in_access = [False]
    access = fast.access
    miss = fast._miss

    def counted_access(*args):
        calls["access"] += 1
        in_access[0] = True
        try:
            return access(*args)
        finally:
            in_access[0] = False

    def counted_miss(*args):
        calls["access_miss" if in_access[0] else "miss"] += 1
        return miss(*args)

    # instance attributes: _drive reads both, and access itself
    # reaches _miss through self._miss
    fast.access = counted_access
    fast._miss = counted_miss
    fast_state = _per_core_state(fast, traces)
    ref_state = reference_state(ref, traces)
    for starts, stops, measuring in (([0] * 4, mid, False),
                                     (mid, ends, True)):
        for system in (fast, ref):
            system.reset_stats()
            system.measuring = measuring
        _drive(fast, fast_state, starts, stops, fast_times, chunk)
        reference_drive(ref, ref_state, starts, stops, ref_times, chunk)
        _assert_same_state(fast, ref, fast_times, ref_times)
    return calls, sum(ends)


def _assert_probe_calls(calls, events):
    """The probe sent every L1 miss straight to ``_miss`` (``access``
    only saw L1 hits: the stores to S/E/O lines) and retired events
    inline."""
    assert calls["access_miss"] == 0
    assert calls["miss"] > 0
    assert calls["access"] + calls["miss"] < events


def _pin_cases():
    """Every (system, spec, chunk, track_sharing) of the drive-loop pin.
    A system's web_search / chunk-200 / no-sharing case, the pin's
    first case, is named by the system alone."""
    cases = []
    for args in itertools.product(["baseline", "silo", "3level_silo"],
                                  sorted(PIN_SPECS), [1, 7, 200],
                                  [False, True]):
        if args[1:] == ("web_search", 200, False):
            case_id = args[0]
        else:
            case_id = "-".join(map(str, args))
        cases.append(pytest.param(*args, id=case_id))
    return cases


@pytest.mark.parametrize("sys_name,spec_name,chunk,track_sharing",
                         _pin_cases())
def test_fast_drive_matches_reference_loop(sys_name, spec_name, chunk,
                                           track_sharing):
    calls, events = _pin_drive(sys_name, spec_name, chunk, track_sharing)
    _assert_probe_calls(calls, events)
    if spec_name == "l1_resident":
        # most of an L1-resident trace is retired inline
        assert calls["access"] + calls["miss"] < events // 2


def test_fast_drive_with_active_faults_calls_access_per_event():
    plan = FaultPlan(seed=3, tag_flip_rate=1e-3)
    calls, events = _pin_drive("silo", "l1_resident", 200, faults=plan)
    assert calls["access"] == events
    assert calls["miss"] == 0


def test_fast_drive_with_prefetchers_calls_access_per_event():
    calls, events = _pin_drive("baseline", "l1_resident", 200,
                               l1_prefetcher=True)
    assert calls["access"] == events
    assert calls["miss"] == 0


def test_fast_drive_under_tracer_matches_reference_loop():
    # The tracer acts on no L1 hit, so the probe stays on; every traced
    # event, cycle stamps included, must still match.
    calls, events = _pin_drive("silo", "write_heavy", 7, tracer=True)
    _assert_probe_calls(calls, events)


# ---------------------------------------------------------------------------
# Interleave chunk: validation
# ---------------------------------------------------------------------------

BAD_CHUNKS = (0, -3, True, 2.5, "200")


def test_run_request_rejects_bad_chunk():
    for bad in BAD_CHUNKS:
        with pytest.raises(ValueError):
            _point_with(chunk=bad)
        wire = _point().canonical()
        wire["chunk"] = bad
        with pytest.raises(ValueError):
            RunRequest.from_canonical(wire)


def test_run_request_defaults_from_ambient():
    assert _point().chunk == DEFAULT_CHUNK
    with use_chunk(77):
        assert _point().chunk == 77


BAD_SEEDS = ("x", 7.0, True, -1, None)


def test_run_request_rejects_bad_seed():
    """A seed numpy would refuse inside the job is refused up front,
    and ``7.0`` never gets a run key of its own beside ``7``."""
    for bad in BAD_SEEDS:
        with pytest.raises(ValueError, match="seed"):
            _point(seed=bad)
        wire = _point().canonical()
        wire["seed"] = bad
        with pytest.raises(ValueError, match="seed"):
            RunRequest.from_canonical(wire)
    assert _point(seed=0).seed == 0


def test_run_request_rejects_unknown_fields():
    wire = _point().canonical()
    wire["tracksharing"] = True
    wire["zeta"] = 1
    with pytest.raises(ValueError) as exc:
        RunRequest.from_canonical(wire)
    assert "tracksharing" in str(exc.value) and "zeta" in str(exc.value)
    # the optional fields may still be omitted
    for name in ("colocated", "track_sharing", "chunk", "faults", "mode"):
        del wire[name]
    del wire["tracksharing"], wire["zeta"]
    assert RunRequest.from_canonical(wire).key() == _point().key()


@pytest.mark.parametrize("core", [99, 4, -1])
def test_run_request_rejects_core_ids_outside_the_system(core):
    config = system_config("silo", num_cores=4, scale=SCALE)
    spec = SCALEOUT_WORKLOADS["web_search"]
    with pytest.raises(ValueError, match="core id"):
        RunRequest.point(config, spec, PLAN, 7, core_ids=(0, core))
    wire = RunRequest.point(config, spec, PLAN, 7).canonical()
    wire["placements"][0]["core_ids"] = [0, core]
    with pytest.raises(ValueError, match="core id"):
        RunRequest.from_canonical(wire)
    assert RunRequest.point(config, spec, PLAN, 7,
                            core_ids=(0, 3)).placements[0][1] == (0, 3)


@pytest.mark.parametrize("plan", [
    FaultPlan(data_flip_rate=0.01, target=4),
    FaultPlan(data_flip_rate=0.01, target=99),
    FaultPlan(vault_events=((10, 99, "offline"),)),
], ids=["target-4", "target-99", "vault-event-99"])
def test_run_request_rejects_fault_targets_outside_the_system(plan):
    """A 4-core system has vaults/banks 0..3: a plan naming another
    would fail midway (vault events) or inject nothing (target)."""
    with pytest.raises(ValueError, match="vault/bank"):
        _point_with(faults=plan)
    wire = _point().canonical()
    wire["faults"] = plan.canonical()
    with pytest.raises(ValueError, match="vault/bank"):
        RunRequest.from_canonical(wire)
    inside = FaultPlan(data_flip_rate=0.01, target=3,
                       vault_events=((10, 3, "offline"),))
    assert _point_with(faults=inside).faults == inside


def _two_placements(wire, core_ids, colocated):
    first = wire["placements"][0]
    wire["placements"] = [dict(first, core_ids=core_ids[0]),
                          dict(first, core_ids=core_ids[1])]
    wire["colocated"] = colocated


def _three_cores(wire):
    wire["config"]["num_cores"] = 3
    wire["placements"][0]["core_ids"] = [0, 1, 2]


def _faults(**edits):
    """An edit that gives the request a valid, active fault plan with
    ``edits`` applied to its canonical fields."""
    def edit(wire):
        plan = FaultPlan(data_flip_rate=0.01, target=1,
                         vault_events=((10, 1, "offline"),)).canonical()
        plan.update(edits)
        wire["faults"] = plan
    return edit


#: Edits to a canonical 4-core request that would otherwise be queued
#: and then fail inside the job or run as nonsense, and a word of the
#: error the request must raise instead.  An edit that returns a dict
#: adds those fields to the ``POST /runs`` body around the request.
HOSTILE_EDITS = {
    "warmup-float": (lambda w: w["plan"].update(warmup_events=1.5),
                     "warmup_events"),
    "measure-bool": (lambda w: w["plan"].update(measure_events=True),
                     "measure_events"),
    "scale-float": (lambda w: w["config"].update(scale=2.5), "scale"),
    "scale-bool": (lambda w: w["config"].update(scale=True), "scale"),
    # integer scales that leave a Table II cache no whole number of
    # sets (3, 5) or banks (48, 100)
    "scale-3": (lambda w: w["config"].update(scale=3), "scale 3"),
    "scale-5": (lambda w: w["config"].update(scale=5), "scale 5"),
    "scale-48": (lambda w: w["config"].update(scale=48), "scale 48"),
    "scale-100": (lambda w: w["config"].update(scale=100), "scale 100"),
    "cores-bool": (lambda w: w["config"].update(num_cores=True),
                   "num_cores"),
    "cores-float": (lambda w: w["config"].update(num_cores=4.0),
                    "num_cores"),
    "three-cores": (_three_cores, "perfect square"),
    "core-twice": (lambda w: w["placements"][0].update(
        core_ids=[0, 0, 1]), "named twice"),
    "no-core": (lambda w: w["placements"][0].update(core_ids=[]),
                "no core"),
    "no-placement": (lambda w: w.update(placements=[]), "placement"),
    "two-placements": (lambda w: _two_placements(w, ([0, 1], [2, 3]),
                                                 False), "colocated"),
    "colocated-core-twice": (lambda w: _two_placements(
        w, ([0, 1], [1, 2]), True), "named twice"),
    # fault plans: a float or string seed fails inside the injector, a
    # float vault fails midway, a float target injects nothing, and a
    # bool or float that runs keys apart from its int form
    "fault-seed-float": (_faults(seed=1.5), "seed"),
    "fault-seed-str": (_faults(seed="1"), "seed"),
    "fault-seed-bool": (_faults(seed=True), "seed"),
    "fault-target-float": (_faults(target=1.5), "target"),
    "fault-target-bool": (_faults(target=True), "target"),
    "fault-rate-bool": (_faults(data_flip_rate=True), "data_flip_rate"),
    "fault-rate-str": (_faults(stall_rate="0.1"), "stall_rate"),
    "fault-retries-float": (_faults(stall_retries_max=2.5),
                            "stall_retries_max"),
    "fault-event-vault-float": (_faults(vault_events=[[10, 1.5,
                                                      "offline"]]),
                                "vault event vault"),
    "fault-event-vault-bool": (_faults(vault_events=[[10, True,
                                                     "offline"]]),
                               "vault event vault"),
    "fault-event-tick-float": (_faults(vault_events=[[10.0, 1,
                                                     "offline"]]),
                               "vault event tick"),
    # hierarchy fields: a value that only compares equal to a valid one
    # runs as something else under its own key (1 == True runs with
    # the predictor off, True == 1 builds a 1-way L1, a non-empty
    # string builds the prefetchers); a float fails inside the job
    "name-int": (lambda w: w["config"].update(name=3), "name"),
    "l1-ways-bool": (lambda w: w["config"].update(l1_ways=True),
                     "l1_ways"),
    "l1-ways-float": (lambda w: w["config"].update(l1_ways=8.0),
                      "l1_ways"),
    "llc-size-float": (lambda w: w["config"].update(
        llc_size_bytes=8388608.0), "llc_size_bytes"),
    "l2-size-zero": (lambda w: w["config"].update(l2_size_bytes=0),
                     "l2_size_bytes"),
    "dram-cache-negative": (lambda w: w["config"].update(
        dram_cache_bytes=-4096), "dram_cache_bytes"),
    "memory-latency-negative": (lambda w: w["config"].update(
        memory_latency=-5), "memory_latency"),
    "hop-latency-negative": (lambda w: w["config"].update(
        hop_latency=-3), "hop_latency"),
    "llc-latency-str": (lambda w: w["config"].update(llc_latency="5"),
                        "llc_latency"),
    "prefetcher-str": (lambda w: w["config"].update(l1_prefetcher="no"),
                       "l1_prefetcher"),
    "queueing-int": (lambda w: w["config"].update(memory_queueing=1),
                     "memory_queueing"),
    "victim-replication-int": (lambda w: w["config"].update(
        victim_replication=1), "victim_replication"),
    "miss-predictor-int": (lambda w: w["config"].update(
        llc_kind="private_vault", local_miss_predictor=1),
        "local_miss_predictor"),
    "directory-cache-zero": (lambda w: w["config"].update(
        llc_kind="private_vault", directory_cache=0), "directory_cache"),
    # workload and request fields that failed inside the job or ran
    # under a run key of their own
    "mode-bogus": (lambda w: w.update(mode="bogus"), "mode"),
    "core-ids-float": (lambda w: w["placements"][0].update(
        core_ids=[0.0, 1, 2, 3]), "placements"),
    "core-ids-bool": (lambda w: w["placements"][0].update(
        core_ids=[False, 1, 2, 3]), "placements"),
    "ifetch-stall-negative": (lambda w: _spec(w)["core"].update(
        ifetch_stall_factor=-1.0), "ifetch_stall_factor"),
    "reference-rates-zero": (lambda w: _spec(w)["core"].update(
        ifetch_per_instr=0.0, data_refs_per_instr=0), "data_refs_per_instr"),
    "region-alpha-negative": (lambda w: _spec(w)["regions"][0].update(
        alpha=-0.5), "alpha"),
    # misspelled keys outside the records used to be dropped: the body
    # ran as batch/json, the placement keyed as if the key were absent
    "body-misspelled-keys": (lambda w: {"priorty": "interactive",
                                        "fromat": "pickle"},
                             "fromat, priorty"),
    "placement-misspelled-key": (lambda w: w["placements"][0].update(
        coreids=[0, 1, 2, 3]), "coreids"),
    # a machine or a trace far larger than any legitimate point: the
    # job would run out of memory or time instead of failing here
    "l1-size-2**40": (lambda w: w["config"].update(l1_size_bytes=2 ** 40),
                      "cache lines/pages"),
    "measure-events-10**12": (lambda w: w["plan"].update(
        measure_events=10 ** 12), "trace events"),
    "region-size-1e9-mb": (lambda w: _spec(w)["regions"][0].update(
        size_mb=1e9), "workload blocks"),
}


def _spec(wire):
    return wire["placements"][0]["spec"]


def _records(cls=RunRequest, path=()):
    """Each record class of a request, from the annotations down, with
    the path of its canonical form in the request's canonical dict (a
    tuple of records is reached through its first)."""
    yield cls, path
    for name, tp in typing.get_type_hints(cls).items():
        sub = path + (name,)
        inner = [a for a in typing.get_args(tp)
                 if a not in (type(None), Ellipsis)]
        if typing.get_origin(tp) is tuple:
            sub, tp = sub + (0,), inner[0]
            if typing.get_origin(tp) is tuple:  # (spec, core ids) pairs
                sub, tp = sub + ("spec",), typing.get_args(tp)[0]
        elif inner:
            tp = inner[0]
        if dataclasses.is_dataclass(tp) or hasattr(tp, "_fields"):
            yield from _records(tp, sub)


_SCALARS = {int, float, bool, str, type(None)}


def _wrong_values(tp):
    """A value of each type the scalar annotation ``tp`` does not take
    (a bool for a number, a string for a number or bool, an int for a
    bool, ...), and NaN and infinity for a float."""
    taken = set(typing.get_args(tp) or (tp,))
    if float in taken:
        taken.add(int)
        yield from (float("nan"), float("inf"))
    for value in (True, 1, 1.5, "1"):
        if type(value) not in taken:
            yield value


def _generated_edits():
    """A :data:`HOSTILE_EDITS` case per wrong value of every scalar
    field of every request record, named by the record and field its
    error must name."""
    cases = {}
    for cls, path in _records():
        words = re.sub("(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()
        for index, (name, tp) in enumerate(
                typing.get_type_hints(cls).items()):
            if not set(typing.get_args(tp) or (tp,)) <= _SCALARS:
                continue
            key = index if hasattr(cls, "_fields") else name
            for value in _wrong_values(tp):
                def edit(wire, path=path, key=key, value=value):
                    if path[:1] == ("faults",):
                        _faults()(wire)
                    node = wire
                    for step in path:
                        node = node[step]
                    node[key] = value
                cases["%s.%s=%r" % (cls.__name__, name, value)] = (
                    edit, "%s %s" % (words, name))
    return cases


HOSTILE_EDITS.update(_generated_edits())


def hostile_body(case, mode="simulate"):
    """The ``POST /runs`` body of a 4-core point under one
    :data:`HOSTILE_EDITS` case, and the word its error must carry."""
    edit, word = HOSTILE_EDITS[case]
    wire = _point().canonical()
    wire["mode"] = mode
    body = {"request": wire}
    body.update(edit(wire) or {})
    return body, word


@pytest.mark.parametrize("case", sorted(HOSTILE_EDITS))
def test_run_request_rejects_hostile_wire_input(case):
    for mode in ("simulate", "estimate"):
        body, word = hostile_body(case, mode)
        with pytest.raises(proto.ProtocolError, match=word):
            proto.parse_run_payload(body)
        if len(body) == 1:      # the edit is inside the request
            with pytest.raises(ValueError, match=word):
                RunRequest.from_canonical(body["request"])


def test_every_experiment_point_fits_the_budget():
    """The budget is the largest legitimate point's cost: at scale 1
    under the largest preset, every system running every workload on
    the 16-core machine, fig15's mixes and table6's colocated pair
    all pass ``from_canonical``."""
    plan = max(PRESETS.values(), key=lambda p: p.total_events)
    points = [_ws_request(name, colocated, plan, 1, 7)
              for name in ("baseline", "silo")
              for colocated in (False, True)]
    points += [_mix_request("silo", apps, plan, 1, 7)
               for apps in SPEC_MIXES.values()]
    points += [RunRequest.point(system_config(name, scale=1), spec, plan, 7)
               for name in SYSTEM_LABELS
               for spec in (*SCALEOUT_WORKLOADS.values(),
                            *ENTERPRISE_WORKLOADS.values(),
                            *SPEC_APPS.values())]
    for req in points:
        assert RunRequest.from_canonical(req.canonical()) == req
    budget = request_budget()
    for measure in budget:
        assert max(req.cost()[measure] for req in points) == budget[measure]


def test_run_request_accepts_square_meshes_and_disjoint_placements():
    spec = SCALEOUT_WORKLOADS["web_search"]
    for cores in (1, 4, 9, 16):
        config = system_config("silo", num_cores=cores, scale=SCALE)
        assert RunRequest.point(config, spec, PLAN, 7).placements[0][1] \
            == tuple(range(cores))
    config = system_config("silo", num_cores=4, scale=SCALE)
    req = RunRequest.colocation(config, [(spec, (0, 1)), (spec, (2,))],
                                PLAN, 7)
    assert RunRequest.from_canonical(req.canonical()).key() == req.key()


def test_run_system_rejects_bad_chunk():
    config = system_config("baseline", num_cores=4, scale=SCALE)
    spec = SCALEOUT_WORKLOADS["web_search"]
    traces, _layout = generate_traces(
        spec, num_cores=4, events_per_core=PLAN.total_events,
        scale=SCALE, seed=7)
    for bad in BAD_CHUNKS:
        with pytest.raises(ValueError):
            run_system(System(config, [spec.core] * 4), traces,
                       PLAN.warmup_events, PLAN.measure_events,
                       chunk=bad)


# ---------------------------------------------------------------------------
# Cache size cap: parse_size_bytes, LRU pruning, env plumbing
# ---------------------------------------------------------------------------


def test_parse_size_bytes_units_and_errors():
    assert parse_size_bytes("1048576") == 1024 ** 2
    assert parse_size_bytes("64k") == 64 * 1024
    assert parse_size_bytes("500m") == 500 * 1024 ** 2
    assert parse_size_bytes("2G") == 2 * 1024 ** 3
    assert parse_size_bytes(" 3m ") == 3 * 1024 ** 2
    for bad in ("abc", "-1", "0", "", "1.5m", "m"):
        with pytest.raises(ValueError):
            parse_size_bytes(bad)
    with pytest.raises(ValueError):
        RunCache("/tmp/never-used", max_bytes=0)


def _seed_cache(tmp_path, n_entries):
    """A real summary stored under ``n_entries`` synthetic keys with
    strictly ascending access times (index 0 = least recently used)."""
    cache = RunCache(str(tmp_path))
    engine = RunEngine(jobs=1, cache=cache)
    (summary,) = engine.run([_point()])
    keys = ["%064x" % i for i in range(n_entries)]
    base = os.stat(cache.path_for(_point().key(engine.fingerprint))).st_atime
    for i, key in enumerate(keys):
        path = cache.put(key, summary)
        # Backdate into the past so a get() touch (= now) outranks all.
        stamp = base - 10.0 * (n_entries - i)
        os.utime(path, (stamp, stamp))
    return cache, keys


def test_cache_prune_evicts_oldest_access_first(tmp_path):
    cache, keys = _seed_cache(tmp_path, 4)
    _atime, size, _path = cache.entries()[0]
    # 4 backdated synthetic entries + 1 real entry (most recent); a cap
    # of three entry-sizes evicts exactly the two oldest synthetics.
    removed = cache.prune(max_bytes=3 * size)
    assert removed == 2
    assert cache.pruned_entries == 2
    assert cache.get(keys[0]) is None       # oldest two gone
    assert cache.get(keys[1]) is None
    assert cache.get(keys[2]) is not None   # newest survive
    assert cache.get(keys[3]) is not None


def test_cache_get_refreshes_lru_order(tmp_path):
    cache, keys = _seed_cache(tmp_path, 3)
    assert cache.get(keys[0]) is not None   # touch the oldest entry
    _atime, size, _path = cache.entries()[0]
    cache.prune(max_bytes=2 * size)
    assert cache.get(keys[0]) is not None   # survived: recently touched
    assert cache.get(keys[1]) is None       # evicted instead


def test_cache_put_prunes_automatically_when_capped(tmp_path):
    unbounded = RunCache(str(tmp_path / "probe"))
    engine = RunEngine(jobs=1, cache=unbounded)
    (summary,) = engine.run([_point()])
    entry_size = unbounded.entries()[0][1]

    cache = RunCache(str(tmp_path / "capped"), max_bytes=2 * entry_size)
    for i in range(5):
        cache.put("%064x" % i, summary)
    assert cache.total_bytes() <= cache.max_bytes
    assert len(cache.entries()) <= 2
    assert cache.pruned_entries >= 3


@pytest.fixture(scope="module")
def estimate():
    """A cheap real summary: one estimated point."""
    return RunEngine(jobs=1, mode="estimate").run([_point()])[0]


def _capped(tmp_path, summary, entries):
    """A cache capped at ``entries`` and a half entry's worth of bytes,
    and its entry size."""
    probe = RunCache(str(tmp_path / "probe"))
    size = os.path.getsize(probe.put("0" * 64, summary))
    return (RunCache(str(tmp_path / "capped"),
                     max_bytes=entries * size + size // 2), size)


def _keys(n, offset=0):
    return ["%064x" % (offset + i) for i in range(n)]


def test_capped_cache_stays_under_its_cap_over_many_puts(tmp_path,
                                                         estimate):
    cache, _size = _capped(tmp_path, estimate, 5)
    for key in _keys(40):
        cache.put(key, estimate)
        assert cache.total_bytes() <= cache.max_bytes
    assert len(cache.entries()) == 5
    assert cache.pruned_entries == 35


def test_a_hit_keeps_an_old_entry_alive_past_younger_ones(tmp_path,
                                                          estimate):
    cache, _size = _capped(tmp_path, estimate, 3)
    k = _keys(4)
    for key in k[:3]:
        cache.put(key, estimate)
    assert cache.get(k[0]) is not None      # the oldest, touched
    cache.put(k[3], estimate)
    assert cache.get(k[0]) is not None
    assert cache.get(k[1]) is None          # the least recently used
    assert cache.get(k[2]) is not None


def test_a_new_cache_on_the_directory_keeps_atime_order(tmp_path,
                                                        estimate):
    cache, _size = _capped(tmp_path, estimate, 3)
    k = _keys(4)
    for key in k[:3]:
        cache.put(key, estimate)
    # k[1] is the oldest access, then k[2], then k[0]
    now = os.stat(cache.path_for(k[0])).st_atime
    for key, age in ((k[1], 30.0), (k[2], 20.0), (k[0], 10.0)):
        os.utime(cache.path_for(key), (now - age, now - age))
    restarted = RunCache(cache.directory, max_bytes=cache.max_bytes)
    restarted.put(k[3], estimate)
    assert restarted.pruned_entries == 1
    assert not os.path.exists(restarted.path_for(k[1]))
    assert all(os.path.exists(restarted.path_for(key))
               for key in (k[0], k[2], k[3]))


def test_entries_other_writers_put_count_after_the_next_rescan(
        tmp_path, estimate):
    cache, _size = _capped(tmp_path, estimate, 4)
    cache.put(_keys(1)[0], estimate)                   # seeds the index
    other = RunCache(cache.directory)                  # another writer
    for key in _keys(6, offset=100):
        other.put(key, estimate)
    assert cache.total_bytes() > cache.max_bytes
    # At most max_bytes written later, the index has seen them and the
    # directory fits again.
    for key in _keys(5, offset=200):
        cache.put(key, estimate)
    assert cache.total_bytes() <= cache.max_bytes
    assert cache.pruned_entries >= 6


def test_an_entry_deleted_behind_the_index_is_skipped(tmp_path, estimate):
    cache, _size = _capped(tmp_path, estimate, 3)
    k = _keys(4)
    for key in k[:3]:
        cache.put(key, estimate)
    os.remove(cache.path_for(k[0]))         # gone, but still indexed
    cache.put(k[3], estimate)               # evicting k[0] frees nothing
    assert cache.pruned_entries == 0
    assert all(cache.get(key) is not None for key in k[1:])
    assert cache.get(k[0]) is None


def test_capped_puts_scan_the_directory_a_bounded_number_of_times(
        tmp_path, estimate, monkeypatch):
    cache, _size = _capped(tmp_path, estimate, 50)
    scans = []
    listdir, scandir = os.listdir, os.scandir

    def counted(real):
        def wrapper(path="."):
            if os.path.abspath(path) == cache.directory:
                scans.append(path)
            return real(path)
        return wrapper

    monkeypatch.setattr(os, "listdir", counted(listdir))
    monkeypatch.setattr(os, "scandir", counted(scandir))
    for key in _keys(200):
        cache.put(key, estimate)
    # one seeding scan, then one per max_bytes written (the unindexed
    # cache scanned once per put)
    assert 1 <= len(scans) <= 1 + 200 // 50
    assert cache.total_bytes() <= cache.max_bytes
    assert cache.pruned_entries == 150


def test_concurrent_puts_and_hits_keep_the_index_consistent(tmp_path,
                                                            estimate):
    # The job server reads the cache off its engine thread.
    cache, _size = _capped(tmp_path, estimate, 6)
    errors = []

    def worker(w):
        try:
            for i, key in enumerate(_keys(40, offset=1000 * w)):
                cache.put(key, estimate)
                cache.get(_keys(1, offset=1000 * w + i // 2)[0])
        except Exception as e:      # noqa: BLE001 -- reported below
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(w,))
               for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert cache._total == sum(cache._index.values())
    assert cache.total_bytes() <= cache.max_bytes


def test_engine_snapshot_surfaces_cache_cap_and_pruning(tmp_path):
    cache = RunCache(str(tmp_path), max_bytes=8 * 1024 ** 2)
    engine = RunEngine(jobs=1, cache=cache)
    engine.run([_point()])
    snap = engine.snapshot()
    assert snap["cache_max_bytes"] == 8 * 1024 ** 2
    assert snap["cache_pruned_entries"] == 0
    cache.pruned_entries = 3
    assert engine.snapshot()["cache_pruned_entries"] == 3


def test_a_batch_that_raises_drains_the_in_flight_gauge(monkeypatch):
    def boom(request, key):
        raise RuntimeError("simulation failed")

    monkeypatch.setattr(engine_mod, "_execute_to_summary", boom)
    engine = RunEngine(jobs=1)
    with pytest.raises(RuntimeError):
        engine.run([_point(), _point(seed=8)])
    snap = engine.snapshot()
    assert snap["in_flight"] == 0
    assert snap["flight_recorder"]["batches"] == 1


def test_cache_max_bytes_env_flows_through_engine_from_env(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1m")
    engine = engine_from_env()
    assert engine.cache is not None
    assert engine.cache.max_bytes == 1024 ** 2

    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "")
    assert cache_max_bytes_from_env() is None
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "junk")
    with pytest.raises(ValueError):
        cache_max_bytes_from_env()


def test_setup_imports_no_serving_or_process_pool():
    # What a serial experiment pays for at start-up: building an engine
    # must not load the job server, an HTTP client or multiprocessing.
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    program = (
        "import sys\n"
        "import repro.experiments\n"
        "from repro.sim.engine import RunEngine\n"
        "RunEngine(jobs=1, cache=None)\n"
        "mods = ('repro.serve', 'http.client',\n"
        "        'concurrent.futures.process', 'multiprocessing')\n"
        "print(sorted(m for m in mods if m in sys.modules))\n")
    out = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
