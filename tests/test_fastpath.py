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
``System.access`` and still match.  The interleave chunk's own tests
and those of what the loop reads are ``tests/test_driver.py``'s.
"""

from unittest import mock

import pytest

from repro.core.systems import system_config
from repro.faults import FaultPlan
from repro.sim import driver
from repro.sim.driver import simulate
from repro.sim.sampling import SamplingPlan
from repro.sim.system import SharedSystem, System, VaultSystem
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
    assert fast.system.stats() == slow.system.stats()
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
