"""Run-level pin suite for the drive loop's fast path: ``_drive``
retires trivial L1 hits inline and hands L1 misses straight to the
organization's ``_miss`` instead of calling ``System.access``
(DESIGN.md section 2f).

Every ``simulate`` run here is compared with the same run whose drive
loop is swapped for the verbatim reference loop, which sends every
event through ``System.access``: performance, per-level counts, the
full stats snapshot and the latency distributions must be
*bit-identical*.  Systems with prefetchers or an active fault plan act
on every access, hits included, so they must send every event through
``System.access`` and still match.  The interleave chunk is checked
here too, and so is what the loop reads: each trace's own ``blocks``
and ``flags`` lists, from one trace set that back-to-back systems on
the same workload share.
"""

from unittest import mock

import pytest

from repro.core.systems import system_config
from repro.faults import FaultPlan
from repro.sim import driver
from repro.sim.driver import DEFAULT_CHUNK, _per_core_state, \
    default_chunk, simulate, use_chunk
from repro.sim.engine import RunEngine, RunRequest
from repro.sim.sampling import SamplingPlan
from repro.sim.system import SharedSystem, System, VaultSystem
from repro.workloads import generator
from repro.workloads.generator import generate_traces
from repro.workloads.scaleout import SCALEOUT_WORKLOADS
from tests.drive_reference import HOT_SPEC, reference_run_drive

SCALE = 64
PLAN = SamplingPlan(4_000, 2_000)


def _run(config_name, *, reference=False, spec=HOT_SPEC, plan=PLAN,
         num_cores=4, chunk=None, faults=None, **overrides):
    """One ``simulate`` run and the number of events the drive loop
    did not retire inline: its ``System.access`` calls plus the
    ``_miss`` calls it made directly (not from inside ``access``).
    ``reference`` swaps the drive loop for the reference loop, so
    every event is one call."""
    config = system_config(config_name, num_cores=num_cores,
                           scale=SCALE, **overrides)
    calls = [0]
    in_access = [False]
    access = System.access

    def counted(self, *args):
        calls[0] += 1
        in_access[0] = True
        try:
            return access(self, *args)
        finally:
            in_access[0] = False

    def counted_miss(miss):
        def wrapper(self, *args):
            if not in_access[0]:
                calls[0] += 1
            return miss(self, *args)
        return wrapper

    drive = reference_run_drive if reference else driver._drive
    with mock.patch.object(System, "access", counted), \
            mock.patch.object(SharedSystem, "_miss",
                              counted_miss(SharedSystem._miss)), \
            mock.patch.object(VaultSystem, "_miss",
                              counted_miss(VaultSystem._miss)), \
            mock.patch.object(driver, "_drive", drive):
        result = simulate(config, spec, plan, seed=7, chunk=chunk,
                          faults=faults)
    return result, calls[0]


def _pin(fast, slow):
    """All observable results of two runs are bit-identical."""
    assert fast.performance() == slow.performance()
    assert fast.level_counts() == slow.level_counts()
    assert fast.system.stats.snapshot() == slow.system.stats.snapshot()
    assert fast.latency_percentiles() == slow.latency_percentiles()


# ---------------------------------------------------------------------------
# the pin: fast path == reference loop, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config_name",
                         ["baseline", "silo", "3level_silo"])
def test_fastpath_is_bit_identical(config_name):
    fast, fast_calls = _run(config_name)
    slow, events = _run(config_name, reference=True)
    _pin(fast, slow)
    # most of the L1-resident trace was retired inline
    assert fast_calls < events // 2


@pytest.mark.parametrize("config_name", ["baseline", "silo"])
def test_fastpath_identical_on_llc_stressing_workload(config_name):
    spec = SCALEOUT_WORKLOADS["web_frontend"]
    fast, fast_calls = _run(config_name, spec=spec)
    slow, events = _run(config_name, reference=True, spec=spec)
    _pin(fast, slow)
    assert fast_calls < events


@pytest.mark.parametrize("chunk", [50, 200, 800])
def test_fastpath_identical_at_every_chunk(chunk):
    fast, _ = _run("silo", chunk=chunk)
    slow, _ = _run("silo", reference=True, chunk=chunk)
    _pin(fast, slow)


# ---------------------------------------------------------------------------
# per-access features send every event through System.access
# ---------------------------------------------------------------------------


def test_prefetchers_disable_the_kernel():
    fast, fast_calls = _run("baseline", l1_prefetcher=True)
    slow, slow_calls = _run("baseline", reference=True,
                            l1_prefetcher=True)
    assert fast.system.prefetchers is not None
    assert fast_calls == slow_calls
    _pin(fast, slow)


def test_active_faults_disable_the_kernel():
    plan = FaultPlan(seed=3, tag_flip_rate=1e-3)
    fast, fast_calls = _run("silo", faults=plan)
    slow, events = _run("silo", reference=True, faults=plan)
    assert fast.system.faults is not None
    assert fast_calls == events
    _pin(fast, slow)


def test_inactive_faults_keep_the_kernel():
    # An inactive plan attaches no injector, so hits still retire inline.
    fast, fast_calls = _run("silo", faults=FaultPlan())
    slow, events = _run("silo", reference=True, faults=FaultPlan())
    assert fast.system.faults is None
    assert fast_calls < events // 2
    _pin(fast, slow)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def test_use_chunk_override():
    assert default_chunk() == DEFAULT_CHUNK
    with use_chunk(64):
        assert default_chunk() == 64
    assert default_chunk() == DEFAULT_CHUNK


@pytest.mark.parametrize("bad", [2.7, True, "5", 0, -1])
def test_use_chunk_rejects_what_a_request_would(bad):
    # int() would install 2.7 as 2, True as 1 and "5" as 5.
    with pytest.raises(ValueError, match="chunk"):
        with use_chunk(bad):
            pass
    assert default_chunk() == DEFAULT_CHUNK


def test_run_request_defaults_from_ambient():
    config = system_config("silo", num_cores=4, scale=SCALE)
    req = RunRequest.point(config, HOT_SPEC, PLAN, seed=7)
    assert req.chunk == DEFAULT_CHUNK
    with use_chunk(77):
        req = RunRequest.point(config, HOT_SPEC, PLAN, seed=7)
    assert req.chunk == 77


# ---------------------------------------------------------------------------
# one trace set per workload, read in place
# ---------------------------------------------------------------------------


def test_decoded_lanes_are_reused_across_systems():
    # Two points on one workload get the same generated trace set, and
    # the drive loop of each system reads that set's own lists.
    config = system_config("silo", num_cores=4, scale=SCALE)
    args = dict(num_cores=4, events_per_core=PLAN.total_events,
                scale=SCALE, seed=7)
    traces, layout = generate_traces(HOT_SPEC, **args)
    again, layout_again = generate_traces(HOT_SPEC, **args)
    assert again is traces and layout_again is layout
    state_a = _per_core_state(System(config, [HOT_SPEC.core] * 4),
                              traces)
    state_b = _per_core_state(System(config, [HOT_SPEC.core] * 4),
                              again)
    for tr, a, b in zip(traces, state_a, state_b):
        assert a[2] is b[2] is tr.blocks
        assert a[3] is b[3] is tr.flags


def test_a_grid_generates_each_workload_once(monkeypatch):
    # The engine runs a grid's points in order; both systems of one
    # workload share the trace set the first one generated.
    monkeypatch.setattr(generator, "_last_traces", None)
    calls = []
    real = generator._generate_traces

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(generator, "_generate_traces", counted)
    requests = [RunRequest.point(system_config(name, num_cores=4,
                                               scale=SCALE),
                                 spec, PLAN, seed=7)
                for spec in (HOT_SPEC, SCALEOUT_WORKLOADS["web_search"])
                for name in ("baseline", "silo")]
    RunEngine(jobs=1).run(requests)
    assert [args[0].name for args in calls] == ["l1_resident",
                                                "web_search"]


def test_a_colocated_pair_generates_its_mix_once(monkeypatch):
    # Baseline then SILO on one mix share the colocated trace set.
    monkeypatch.setattr(generator, "_last_traces", None)
    calls = []
    real = generator._generate_traces

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(generator, "_generate_traces", counted)
    mix = [(HOT_SPEC, (0, 1)), (SCALEOUT_WORKLOADS["web_search"], (2, 3))]
    requests = [RunRequest.colocation(system_config(name, num_cores=4,
                                                    scale=SCALE),
                                      mix, PLAN, seed=7)
                for name in ("baseline", "silo")]
    RunEngine(jobs=1).run(requests)
    assert [args[0].name for args in calls] == ["l1_resident",
                                                "web_search"]


# ---------------------------------------------------------------------------
# chunk metamorphics
# ---------------------------------------------------------------------------


def test_single_core_results_are_chunk_invariant():
    # With one core the interleave grain cannot change event order, so
    # results must be exactly identical across chunk sizes -- with the
    # fast path or the reference loop driving.
    runs = {}
    for chunk in (50, 200, 800):
        for reference in (False, True):
            r, _ = _run("silo", reference=reference, num_cores=1,
                        chunk=chunk)
            runs[(chunk, reference)] = (r.performance(),
                                        r.system.stats.snapshot())
    first = runs[(50, False)]
    assert all(v == first for v in runs.values())


def test_multi_core_chunk_drift_is_bounded():
    # Chunk size changes multi-core interleaving, which legitimately
    # perturbs contention; the measured metric must stay close.
    perf = {}
    for chunk in (50, 800):
        perf[chunk] = _run("silo", chunk=chunk)[0].performance()
    assert perf[800] == pytest.approx(perf[50], rel=0.10)
