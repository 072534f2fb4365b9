"""Out-of-order core performance model: ``CoreModel`` accumulates,
the ``CoreSummary`` of its snapshot evaluates."""

import pytest

from repro.cores.perf_model import (CoreModel, CoreParams, LEVEL_L1,
                                    LEVEL_LLC_LOCAL, LEVEL_LLC_REMOTE,
                                    LEVEL_MEMORY, NUM_LEVELS)
from repro.sim.summary import CoreSummary


def make_core(base_cpi=1.0, mlp=2.0, iff=0.5):
    return CoreModel(0, CoreParams(base_cpi=base_cpi, mlp=mlp,
                                   ifetch_stall_factor=iff))


def test_params_validation():
    with pytest.raises(ValueError):
        CoreParams(base_cpi=0)
    with pytest.raises(ValueError):
        CoreParams(mlp=0.5)


def test_cycles_base_only():
    c = make_core(base_cpi=0.8)
    c.retire(1000)
    s = CoreSummary.snapshot(c)
    assert s.cycles() == pytest.approx(800)
    assert s.ipc() == pytest.approx(1.25)


def test_data_stalls_divided_by_mlp():
    c = make_core(base_cpi=1.0, mlp=2.0)
    c.retire(100)
    c.record_data(LEVEL_MEMORY, 100.0)
    assert CoreSummary.snapshot(c).cycles() == pytest.approx(100 + 50)


def test_ifetch_stalls_scaled_by_factor():
    c = make_core(base_cpi=1.0, iff=0.5)
    c.retire(100)
    c.record_ifetch(LEVEL_LLC_LOCAL, 40.0)
    assert CoreSummary.snapshot(c).cycles() == pytest.approx(100 + 20)


def test_level_scaling_reweights_llc_only():
    c = make_core(base_cpi=1.0, mlp=1.0, iff=1.0)
    c.retire(0)
    c.record_data(LEVEL_LLC_LOCAL, 10.0)
    c.record_data(LEVEL_MEMORY, 100.0)
    scale = [1.0] * NUM_LEVELS
    scale[LEVEL_LLC_LOCAL] = 2.0
    s = CoreSummary.snapshot(c)
    assert s.stall_cycles() == pytest.approx(110)
    assert s.stall_cycles(level_scale=scale) == pytest.approx(120)


def test_rw_shared_extra_factor():
    c = make_core(base_cpi=1.0, mlp=1.0)
    c.retire(0)
    c.record_data(LEVEL_LLC_LOCAL, 10.0, rw_shared=True)
    c.record_data(LEVEL_LLC_LOCAL, 10.0, rw_shared=False)
    # doubling RW-shared latency adds exactly one extra 10-cycle term
    s = CoreSummary.snapshot(c)
    assert s.stall_cycles(rw_shared_extra_factor=1.0) == pytest.approx(30)
    assert c.rw_shared_count == 1


def test_counts_tracked_per_level():
    c = make_core()
    c.record_data(LEVEL_LLC_REMOTE, 90.0)
    c.record_ifetch(LEVEL_LLC_LOCAL, 23.0)
    assert c.data_count[LEVEL_LLC_REMOTE] == 1
    assert c.ifetch_count[LEVEL_LLC_LOCAL] == 1
    assert c.data_count[LEVEL_L1] == 0


def test_ipc_zero_when_no_instructions():
    assert CoreSummary.snapshot(make_core()).ipc() == 0.0


def test_reset():
    c = make_core()
    c.retire(10)
    c.record_data(LEVEL_MEMORY, 100.0, rw_shared=True)
    c.reset()
    assert c.instructions == 0
    assert sum(c.data_latency) == 0
    assert c.rw_shared_latency == 0
