"""Run-level pin suite for the drive loop's fast path: ``_drive``
retires trivial L1 hits inline instead of calling ``System.access``
(DESIGN.md section 2f).

Every ``simulate`` run here is compared with the same run whose drive
loop is swapped for the verbatim reference loop, which sends every
event through ``System.access``: performance, per-level counts, the
full stats snapshot and the latency distributions must be
*bit-identical*.  Systems with prefetchers or an active fault plan act
on every access, hits included, so they must send every event through
``System.access`` and still match.  The interleave chunk and the
decoded event lanes the loop reads are checked here too.
"""

from unittest import mock

import pytest

from repro.core.systems import system_config
from repro.faults import FaultPlan
from repro.sim import driver
from repro.sim.driver import DEFAULT_CHUNK, _per_core_state, \
    default_chunk, simulate, use_chunk
from repro.sim.engine import RunRequest
from repro.sim.sampling import SamplingPlan
from repro.sim.system import System
from repro.workloads.generator import generate_traces
from repro.workloads.scaleout import SCALEOUT_WORKLOADS
from tests.drive_reference import HOT_SPEC, reference_run_drive

SCALE = 64
PLAN = SamplingPlan(4_000, 2_000)


def _run(config_name, *, reference=False, spec=HOT_SPEC, plan=PLAN,
         num_cores=4, chunk=None, faults=None, **overrides):
    """One ``simulate`` run and the number of ``System.access`` calls
    it made.  ``reference`` swaps the drive loop for the reference
    loop, so every event is one call."""
    config = system_config(config_name, num_cores=num_cores,
                           scale=SCALE, **overrides)
    calls = [0]
    access = System.access

    def counted(self, *args):
        calls[0] += 1
        return access(self, *args)

    drive = reference_run_drive if reference else driver._drive
    with mock.patch.object(System, "access", counted), \
            mock.patch.object(driver, "_drive", drive):
        result = simulate(config, spec, plan, seed=7, chunk=chunk,
                          faults=faults)
    return result, calls[0]


def _pin(fast, slow):
    """All observable results of two runs are bit-identical."""
    assert fast.performance() == slow.performance()
    assert fast.level_counts() == slow.level_counts()
    assert fast.stats_snapshot() == slow.stats_snapshot()
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


def test_use_chunk_override(monkeypatch):
    monkeypatch.delenv("REPRO_CHUNK", raising=False)
    assert default_chunk() == DEFAULT_CHUNK
    with use_chunk(64):
        assert default_chunk() == 64
    assert default_chunk() == DEFAULT_CHUNK
    monkeypatch.setenv("REPRO_CHUNK", "321")
    assert default_chunk() == 321
    monkeypatch.setenv("REPRO_CHUNK", "0")
    with pytest.raises(ValueError):
        default_chunk()


def test_run_request_defaults_from_ambient(monkeypatch):
    monkeypatch.delenv("REPRO_CHUNK", raising=False)
    config = system_config("silo", num_cores=4, scale=SCALE)
    req = RunRequest.point(config, HOT_SPEC, PLAN, seed=7)
    assert req.chunk == DEFAULT_CHUNK
    with use_chunk(77):
        req = RunRequest.point(config, HOT_SPEC, PLAN, seed=7)
    assert req.chunk == 77


# ---------------------------------------------------------------------------
# decoded-lanes memoization
# ---------------------------------------------------------------------------


def test_decoded_lanes_are_reused_across_systems():
    config = system_config("silo", num_cores=4, scale=SCALE)
    traces, _layout = generate_traces(
        HOT_SPEC, num_cores=4, events_per_core=PLAN.total_events,
        scale=SCALE, seed=7)
    lanes_a = _per_core_state(System(config, [HOT_SPEC.core] * 4),
                              traces)
    lanes_b = _per_core_state(System(config, [HOT_SPEC.core] * 4),
                              traces)
    for a, b in zip(lanes_a, lanes_b):
        assert a[2] is b[2]                   # the EventLanes object
        assert a[2].writes is b[2].writes     # and its decoded lanes
        assert a[2].lat_mul is b[2].lat_mul


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
                                        r.stats_snapshot())
    first = runs[(50, False)]
    assert all(v == first for v in runs.values())


def test_multi_core_chunk_drift_is_bounded():
    # Chunk size changes multi-core interleaving, which legitimately
    # perturbs contention; the measured metric must stay close.
    perf = {}
    for chunk in (50, 800):
        perf[chunk] = _run("silo", chunk=chunk)[0].performance()
    assert perf[800] == pytest.approx(perf[50], rel=0.10)
