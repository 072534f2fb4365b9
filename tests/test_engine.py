"""Run-engine guarantees: serial, parallel and cache-replayed grids
produce bit-identical results; RunSummary round-trips losslessly; the
drive loop, with its inline L1-hit probe, matches the pre-optimization
reference loop exactly; the interleave chunk is validated; observation
sessions still see what they need.
"""

import itertools
import json
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.core.systems import system_config
from repro.cores.perf_model import CoreParams
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.obs import session as obs_session
from repro.obs.trace import EventTracer
from repro.sim.driver import _drive, _per_core_state, run_system
from repro.sim.engine import (RunCache, RunEngine, RunRequest, RunSummary,
                              cache_max_bytes_from_env, code_fingerprint,
                              engine_from_env, parse_size_bytes,
                              resolve_cache_dir, run_grid, use_engine)
from repro.sim.sampling import SamplingPlan
from repro.sim.system import System
from repro.workloads.base import CodeSpec, RegionSpec, WorkloadSpec
from repro.workloads.generator import generate_traces
from repro.workloads.scaleout import SCALEOUT_WORKLOADS
from repro.experiments.performance import fig10_scaleout
from tests.drive_reference import HOT_SPEC, reference_drive, reference_state

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


def test_summary_matches_live_result_exactly():
    req = _point(track_sharing=True)
    (summary,) = RunEngine(jobs=1).run([req])
    from repro.sim.driver import simulate
    live = simulate(req.config, req.placements[0][0], PLAN, seed=7,
                    track_sharing=True)
    assert summary.performance() == live.performance()
    assert (summary.performance_with_llc_scale(1.5)
            == live.performance_with_llc_scale(1.5))
    assert (summary.performance_with_rw_multiplier(3.0)
            == live.performance_with_rw_multiplier(3.0))
    assert summary.per_core_ipc() == live.per_core_ipc()
    assert summary.level_counts() == live.level_counts()
    assert summary.llc_breakdown() == live.llc_breakdown()
    assert summary.llc_mpki() == live.llc_mpki()
    assert summary.instructions() == live.instructions()
    assert summary.latency_percentiles() == live.latency_percentiles()
    assert summary.sharing == live.system.sharing_breakdown()
    assert summary.counters["llc_accesses"] == live.system.llc_accesses
    assert (summary.counters["memory_accesses"]
            == live.system.memory.accesses)


def test_summary_pickle_round_trip():
    (summary,) = RunEngine(jobs=1).run([_point()])
    clone = pickle.loads(pickle.dumps(summary))
    assert clone.to_dict() == summary.to_dict()
    assert clone.performance() == summary.performance()


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


# ---------------------------------------------------------------------------
# Drive loop: the inline L1-hit probe is bit-identical to the reference
# ---------------------------------------------------------------------------

#: Scale of the small specs below: their footprints then span many L1
#: sets.
HOT_SCALE = 64

#: Half the data references are writes, most to a small region every
#: core shares: store hits on S/E/O lines run the write upgrade, which
#: the probe leaves to System.access.  The code footprint overflows the
#: L1-I, so the probe's ifetch LRU touches decide evictions too.
WRITE_SPEC = WorkloadSpec(
    name="write_heavy",
    code=CodeSpec(size_mb=0.5, alpha=1.0),
    regions=(
        RegionSpec("rw", 0.0625, "zipf", "shared", 0.7, alpha=0.8,
                   write_fraction=0.5),
        RegionSpec("heap", 0.125, "zipf", "private", 0.3, alpha=1.1,
                   write_fraction=0.5),
    ),
    core=CoreParams(),
    rw_shared_region="rw",
)

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
    assert fast.stats.snapshot() == ref.stats.snapshot()
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
    they agree bit for bit after each phase.  Returns the number of
    ``System.access`` calls ``_drive`` made and the events it drove."""
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
    calls = [0]
    access = fast.access

    def counted(*args):
        calls[0] += 1
        return access(*args)

    fast.access = counted
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
    return calls[0], sum(ends)


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
    # the probe retired events inline (and most of an L1-resident trace)
    assert calls < events
    if spec_name == "l1_resident":
        assert calls < events // 2


def test_fast_drive_with_active_faults_calls_access_per_event():
    plan = FaultPlan(seed=3, tag_flip_rate=1e-3)
    calls, events = _pin_drive("silo", "l1_resident", 200, faults=plan)
    assert calls == events


def test_fast_drive_with_prefetchers_calls_access_per_event():
    calls, events = _pin_drive("baseline", "l1_resident", 200,
                               l1_prefetcher=True)
    assert calls == events


def test_fast_drive_under_tracer_matches_reference_loop():
    # The tracer acts on no L1 hit, so the probe stays on; every traced
    # event, cycle stamps included, must still match.
    calls, events = _pin_drive("silo", "write_heavy", 7, tracer=True)
    assert calls < events


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


#: Edits to a canonical 4-core request that would otherwise be queued
#: and then fail inside the job or run as nonsense, and a word of the
#: error the request must raise instead.
HOSTILE_EDITS = {
    "warmup-float": (lambda w: w["plan"].update(warmup_events=1.5),
                     "warmup_events"),
    "measure-bool": (lambda w: w["plan"].update(measure_events=True),
                     "measure_events"),
    "scale-float": (lambda w: w["config"].update(scale=2.5), "scale"),
    "scale-bool": (lambda w: w["config"].update(scale=True), "scale"),
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
}


def hostile_wire(case, mode="simulate"):
    """The canonical dict of a 4-core point under one
    :data:`HOSTILE_EDITS` case, and the word its error must carry."""
    edit, word = HOSTILE_EDITS[case]
    wire = _point().canonical()
    wire["mode"] = mode
    edit(wire)
    return wire, word


@pytest.mark.parametrize("case", sorted(HOSTILE_EDITS))
def test_run_request_rejects_hostile_wire_input(case):
    for mode in ("simulate", "estimate"):
        wire, word = hostile_wire(case, mode)
        with pytest.raises(ValueError, match=word):
            RunRequest.from_canonical(wire)


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


def test_engine_snapshot_surfaces_cache_cap_and_pruning(tmp_path):
    cache = RunCache(str(tmp_path), max_bytes=8 * 1024 ** 2)
    engine = RunEngine(jobs=1, cache=cache)
    engine.run([_point()])
    snap = engine.snapshot()
    assert snap["cache_max_bytes"] == 8 * 1024 ** 2
    assert snap["cache_pruned_entries"] == 0
    cache.pruned_entries = 3
    assert engine.snapshot()["cache_pruned_entries"] == 3


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
