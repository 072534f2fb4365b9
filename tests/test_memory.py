"""Main memory and the closed-page controller queueing model."""

import pytest

from repro.memory.main_memory import MainMemory
from repro.memory.controller import ClosedPageController


def test_unqueued_latency_is_constant():
    mem = MainMemory(latency=100, model_queueing=False)
    for b in range(50):
        assert mem.access(b, now=float(b)) == 100


def test_read_write_counters():
    mem = MainMemory(latency=100, model_queueing=False)
    mem.access(0)
    mem.access(1, is_write=True)
    assert mem.reads == 1 and mem.writes == 1 and mem.accesses == 2
    mem.reset_stats()
    assert mem.accesses == 0


def test_queueing_grows_with_utilization():
    """Many accesses in a short window must see larger delays than few
    accesses in a long window."""
    busy = ClosedPageController(4, 50)
    for i in range(100):
        busy.access(i, now=float(i))        # ~1 access/cycle: saturated
    idle = ClosedPageController(4, 50)
    for i in range(100):
        idle.access(i, now=float(i * 1000))  # sparse
    assert busy.utilization() > idle.utilization()
    assert busy.access(0, 100.0) > idle.access(0, 100000.0)


def test_utilization_clamped():
    c = ClosedPageController(1, 50)
    for i in range(1000):
        c.access(0, now=float(i))
    assert c.utilization() <= ClosedPageController.MAX_UTILIZATION


def test_zero_utilization_no_delay():
    c = ClosedPageController(8, 50)
    assert c.access(0, now=0.0) == 0.0


def test_reset_starts_new_window():
    c = ClosedPageController(2, 50)
    for i in range(100):
        c.access(i, now=float(i))
    c.reset_stats()
    assert c.accesses == 0
    assert c.utilization() == 0.0


def test_controller_validation():
    with pytest.raises(ValueError):
        ClosedPageController(0, 50)
    with pytest.raises(ValueError):
        ClosedPageController(4, -1)
    with pytest.raises(ValueError):
        MainMemory(latency=-5)


def test_memory_queueing_adds_to_latency():
    mem = MainMemory(latency=100, model_queueing=True)
    # hammer one channel at high rate
    lat = 100
    for i in range(200):
        lat = mem.access(0, now=float(i))
    assert lat > 100


def test_conflict_rate_bounds():
    c = ClosedPageController(2, 50)
    for i in range(100):
        c.access(i, now=float(i))
    assert 0.0 <= c.conflict_rate() <= 1.0
