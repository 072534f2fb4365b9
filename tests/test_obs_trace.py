"""Event tracer: ring buffer, per-kind counts, and simulator
integration."""

from repro.cores.perf_model import CoreParams
from repro.obs.trace import (EventTracer, EV_DIRECTORY, EV_INVALIDATE,
                             EV_EVICTION)
from repro.sim.config import HierarchyConfig
from repro.sim.system import System


def small_system(kind="private_vault", **kw):
    kw.setdefault("protocol", "moesi")
    kw.setdefault("llc_size_bytes", 4096)  # tiny vaults: evictions
    config = HierarchyConfig(
        name="trc", num_cores=4, scale=1,
        l1_size_bytes=4096, l1_ways=4,
        llc_kind=kind, llc_latency=5, memory_queueing=False, **kw)
    return System(config, [CoreParams()] * 4)


def test_ring_buffer_bounds_retention():
    t = EventTracer(capacity=4)
    for i in range(10):
        t.emit(EV_DIRECTORY, float(i), 0, i)
    assert t.emitted == 10
    assert len(t.events()) == 4
    assert t.dropped == 6
    assert [e.block for e in t.events()] == [6, 7, 8, 9]
    assert t.summary()["by_kind"] == {EV_DIRECTORY: 10}
    t.clear()
    assert t.emitted == 0 and t.events() == []


def test_silo_run_emits_directory_and_eviction_events():
    s = small_system()
    t = s.attach_tracer(EventTracer(capacity=1024))
    for i in range(300):
        s.access(0, i, False, False)
    kinds = set(t.counts)
    assert EV_DIRECTORY in kinds
    assert EV_EVICTION in kinds  # 4 KB vault = 64 sets, 300 blocks
    assert t.counts[EV_DIRECTORY] == s.directory_lookups


def test_shared_run_emits_invalidations():
    s = small_system(kind="shared", protocol="mesi",
                     llc_size_bytes=64 * 1024, llc_ways=4)
    t = s.attach_tracer(EventTracer(capacity=64))
    s.access(0, 1, False, False)
    s.access(1, 1, True, False)
    assert t.counts.get(EV_INVALIDATE) == s.invalidations == 1


def test_tracer_off_by_default():
    assert small_system().tracer is None
