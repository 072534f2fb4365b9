"""Trace generator: determinism, the representation (one int object
per distinct block, a byte per flag word), the one-entry memo (and
the engine's grids sharing it), layout, region semantics."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.systems import system_config
from repro.cores.perf_model import CoreParams
from repro.sim.engine import RunEngine, RunRequest
from repro.sim.sampling import PRESETS, SamplingPlan
from repro.workloads import colocation, generator
from repro.workloads.base import CodeSpec, RegionSpec, WorkloadSpec
from repro.workloads.generator import (generate_traces, _generate_traces,
                                       zipf_ranks, region_blocks,
                                       FLAG_WRITE, FLAG_IFETCH,
                                       BLOCKS_PER_PAGE)
from repro.workloads.colocation import generate_colocation_traces
from repro.workloads.scaleout import WEB_SEARCH
from tests.drive_reference import HOT_SPEC


def tiny_spec(pattern="zipf", sharing="shared", page_sparse=False,
              wf=0.3):
    return WorkloadSpec(
        name="tiny",
        code=CodeSpec(size_mb=0.5, alpha=1.0),
        regions=(
            RegionSpec("data", 2.0, pattern, sharing, 0.9, alpha=0.6,
                       write_fraction=wf, page_sparse=page_sparse),
            RegionSpec("rw", 0.1, "zipf", "shared", 0.1, alpha=0.5,
                       write_fraction=0.5),
        ),
        core=CoreParams(),
        rw_shared_region="rw",
    )


def test_determinism():
    # Two generations, not one memoized set compared with itself.
    a, _ = generate_traces(tiny_spec(), 2, 500, scale=256, seed=3)
    b, _ = _generate_traces(tiny_spec(), 2, 500, scale=256, seed=3)
    assert a is not b
    assert a[0].blocks == b[0].blocks
    assert a[0].flags == b[0].flags


# ---------------------------------------------------------------------------
# the representation: one int per distinct block, a byte per flag word
# ---------------------------------------------------------------------------


def _one_object_per_block(traces):
    """Is every occurrence of each block number across ``traces`` the
    same int object?"""
    first = {}
    return all(first.setdefault(b, b) is b
               for tr in traces for b in tr.blocks)


def test_a_set_holds_one_int_per_distinct_block():
    # past CPython's cached small ints, which are one object anyway
    traces, _ = generate_traces(tiny_spec(), 4, 2000, scale=256, seed=3,
                                base_block=1000)
    # the shared regions put one block number on several cores
    assert set(traces[0].blocks) & set(traces[1].blocks)
    assert _one_object_per_block(traces)


def test_a_colocated_set_holds_one_int_per_distinct_block():
    traces, _ = generate_colocation_traces(
        [(tiny_spec(), [0, 1]), (tiny_spec(pattern="scan"), [2, 3])],
        events_per_core=2000, scale=256)
    assert _one_object_per_block(traces)


def test_flags_are_bytes_of_flag_words():
    traces, _ = generate_traces(tiny_spec(), 2, 2000, scale=256, seed=3)
    for tr in traces:
        assert type(tr.flags) is bytes
        assert len(tr.flags) == len(tr.blocks)
        assert set(tr.flags) <= {0, 1, 2, 3}
        assert any(fl & FLAG_WRITE for fl in tr.flags)
        assert any(fl & FLAG_IFETCH for fl in tr.flags)


def test_a_held_quick_set_costs_at_most_16_bytes_an_event():
    """A list slot and a flag byte per event plus one int per distinct
    block: about 12 B/event for web_search, the scale-out workload that
    touches the most distinct blocks, where an int of its own per event
    and a list of flag ints cost about 42."""
    plan = PRESETS["quick"]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traces, _ = _generate_traces(WEB_SEARCH, 16, plan.total_events,
                                     scale=256, seed=7)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / sum(len(tr) for tr in traces) <= 16


# ---------------------------------------------------------------------------
# the one-entry memo
# ---------------------------------------------------------------------------

#: generate_traces arguments of the memo tests, and one different value
#: of each.
MEMO_ARGS = dict(spec=tiny_spec(), num_cores=2, events_per_core=500,
                 scale=256, seed=3, base_block=0, core_ids=None,
                 prewarm=True)
MEMO_CHANGES = {
    "spec": tiny_spec(pattern="scan"),
    "num_cores": 1,
    "events_per_core": 400,
    "scale": 512,
    "seed": 4,
    "base_block": 1000,
    "core_ids": [1, 0],
    "prewarm": False,
}


@pytest.mark.parametrize("name", sorted(MEMO_CHANGES))
def test_changing_any_key_argument_regenerates(monkeypatch, name):
    changed = dict(MEMO_ARGS, **{name: MEMO_CHANGES[name]})
    first, _ = generate_traces(**MEMO_ARGS)
    calls = []

    def counted(*args):
        calls.append(args)
        return _generate_traces(*args)

    monkeypatch.setattr(generator, "_generate_traces", counted)
    second, _ = generate_traces(**changed)
    assert len(calls) == 1
    assert second is not first
    fresh, _ = _generate_traces(**changed)
    assert second == fresh


def test_memoized_result_equals_a_fresh_generation():
    generate_traces(**MEMO_ARGS)
    traces, layout = generate_traces(**MEMO_ARGS)
    fresh, fresh_layout = _generate_traces(**MEMO_ARGS)
    assert traces is not fresh
    assert traces == fresh
    assert layout == fresh_layout


def test_the_held_set_is_dropped_before_generating(monkeypatch):
    traces, layout = generate_traces(**MEMO_ARGS)
    held = [weakref.ref(traces[0]), weakref.ref(layout)]
    del traces, layout
    alive = []

    def spy(*args):
        alive.append([ref() is not None for ref in held])
        return _generate_traces(*args)

    monkeypatch.setattr(generator, "_generate_traces", spy)
    generate_traces(**dict(MEMO_ARGS, seed=MEMO_ARGS["seed"] + 1))
    assert alive == [[False, False]]


#: generate_colocation_traces arguments of the memo tests, and one
#: different value of each.
COLOCATED = dict(assignments=[(tiny_spec(), [0, 1]),
                              (tiny_spec(pattern="scan"), [2, 3])],
                 events_per_core=500, scale=256, seed=3)
COLOCATED_CHANGES = {
    "assignments": [(tiny_spec(), [0]), (tiny_spec(pattern="scan"),
                                         [1, 2, 3])],
    "events_per_core": 400,
    "scale": 512,
    "seed": 4,
}


#: The sampling plan of the engine-grid memo tests.
GRID_PLAN = SamplingPlan(1500, 800)


def _counting(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _generate_traces(*args)

    monkeypatch.setattr(generator, "_generate_traces", counted)
    return calls


def test_a_colocated_set_is_memoized_whole(monkeypatch):
    first = generate_colocation_traces(**COLOCATED)
    calls = _counting(monkeypatch)
    again = generate_colocation_traces(**dict(
        COLOCATED, assignments=[(spec, tuple(ids))
                                for spec, ids in COLOCATED["assignments"]]))
    assert again is first
    assert calls == []
    fresh = colocation._generate(
        tuple((spec, tuple(ids)) for spec, ids in COLOCATED["assignments"]),
        500, 256, 3)
    assert fresh[0] is not first[0]
    assert fresh == first


@pytest.mark.parametrize("name", sorted(COLOCATED_CHANGES))
def test_changing_any_colocation_argument_regenerates(monkeypatch, name):
    first = generate_colocation_traces(**COLOCATED)
    calls = _counting(monkeypatch)
    changed = dict(COLOCATED, **{name: COLOCATED_CHANGES[name]})
    second = generate_colocation_traces(**changed)
    assert len(calls) == 2                  # one per workload
    assert second is not first
    assert second == colocation._generate(
        tuple((spec, tuple(ids)) for spec, ids in changed["assignments"]),
        changed["events_per_core"], changed["scale"], changed["seed"])


def test_a_grid_generates_each_workload_once(monkeypatch):
    # The engine runs a grid's points in order; both systems of one
    # workload share the trace set the first one generated.
    monkeypatch.setattr(generator, "_last_traces", None)
    calls = _counting(monkeypatch)
    requests = [RunRequest.point(system_config(name, num_cores=4,
                                               scale=512),
                                 spec, GRID_PLAN, seed=7)
                for spec in (HOT_SPEC, WEB_SEARCH)
                for name in ("baseline", "silo")]
    RunEngine(jobs=1).run(requests)
    assert [args[0].name for args in calls] == ["l1_resident",
                                                "web_search"]


def test_a_colocated_pair_generates_its_mix_once(monkeypatch):
    # Baseline then SILO on one mix share the colocated trace set.
    monkeypatch.setattr(generator, "_last_traces", None)
    calls = _counting(monkeypatch)
    mix = [(HOT_SPEC, (0, 1)), (WEB_SEARCH, (2, 3))]
    requests = [RunRequest.colocation(system_config(name, num_cores=4,
                                                    scale=512),
                                      mix, GRID_PLAN, seed=7)
                for name in ("baseline", "silo")]
    RunEngine(jobs=1).run(requests)
    assert [args[0].name for args in calls] == ["l1_resident",
                                                "web_search"]


def test_a_process_holds_one_set_across_both_generators(monkeypatch):
    # a colocated set is dropped before a homogeneous one is generated,
    # and the other way round
    traces, layouts = generate_colocation_traces(**COLOCATED)
    refs = [weakref.ref(traces[0]), weakref.ref(layouts[0][1])]
    del traces, layouts
    alive = []

    def spy(*args):
        alive.append(any(ref() is not None for ref in refs))
        return _generate_traces(*args)

    monkeypatch.setattr(generator, "_generate_traces", spy)
    traces, layout = generate_traces(**MEMO_ARGS)
    refs = [weakref.ref(traces[0]), weakref.ref(layout)]
    del traces, layout
    generate_colocation_traces(**COLOCATED)
    assert alive == [False, False, False]


def test_different_seeds_differ():
    a, _ = generate_traces(tiny_spec(), 1, 500, scale=256, seed=3)
    b, _ = generate_traces(tiny_spec(), 1, 500, scale=256, seed=4)
    assert a[0].blocks != b[0].blocks


def test_blocks_stay_inside_layout():
    traces, layout = generate_traces(tiny_spec(), 2, 1000, scale=256,
                                     seed=0, base_block=1000)
    for tr in traces:
        assert min(tr.blocks) >= 1000
        assert max(tr.blocks) < 1000 + layout.total_blocks


def test_region_of_classification():
    traces, layout = generate_traces(tiny_spec(), 1, 2000, scale=256,
                                     seed=0)
    names = {layout.region_of(b) for b in traces[0].blocks}
    assert names <= {"code", "data", "rw"}
    assert "code" in names and "data" in names


def test_ifetch_flag_marks_code_blocks_only():
    traces, layout = generate_traces(tiny_spec(), 1, 2000, scale=256,
                                     seed=0)
    tr = traces[0]
    for b, fl in zip(tr.blocks, tr.flags):
        if fl & FLAG_IFETCH:
            assert layout.region_of(b) == "code"
        else:
            assert layout.region_of(b) != "code"


def test_writes_never_target_code():
    traces, layout = generate_traces(tiny_spec(), 1, 2000, scale=256,
                                     seed=0)
    tr = traces[0]
    for b, fl in zip(tr.blocks, tr.flags):
        if fl & FLAG_WRITE:
            assert not fl & FLAG_IFETCH


def test_write_fraction_approximately_honored():
    traces, _ = generate_traces(tiny_spec(wf=0.5), 1, 4000, scale=256,
                                seed=0)
    tr = traces[0]
    data = [fl for fl in tr.flags if not fl & FLAG_IFETCH]
    writes = sum(1 for fl in data if fl & FLAG_WRITE)
    assert 0.35 < writes / len(data) < 0.65


def test_private_regions_are_disjoint_per_core():
    traces, layout = generate_traces(tiny_spec(sharing="private"), 4,
                                     2000, scale=256, seed=0)
    lo, hi = layout.region_ranges["data"]
    sets = []
    for tr in traces:
        sets.append({b for b, fl in zip(tr.blocks, tr.flags)
                     if lo <= b < hi})
    for i in range(4):
        for j in range(i + 1, 4):
            assert not sets[i] & sets[j]


def test_partitioned_scan_covers_slice_cyclically():
    traces, layout = generate_traces(
        tiny_spec(pattern="scan", sharing="partitioned"), 2, 3000,
        scale=256, seed=0, prewarm=False)
    lo, hi = layout.region_ranges["data"]
    tr = traces[0]
    scan_blocks = [b for b, fl in zip(tr.blocks, tr.flags)
                   if lo <= b < hi]
    # cyclic: the same permuted order repeats after one pass
    n = (hi - lo) // 2  # slice size for 2 cores
    if len(scan_blocks) > n + 10:
        assert scan_blocks[:10] == scan_blocks[n:n + 10]


def test_prewarm_prefix_covers_scan_slice():
    traces, layout = generate_traces(
        tiny_spec(pattern="scan", sharing="partitioned"), 2, 100,
        scale=256, seed=0, prewarm=True)
    tr = traces[0]
    lo, hi = layout.region_ranges["data"]
    n = (hi - lo) // 2
    assert tr.prewarm_events == n
    prefix = set(tr.blocks[:tr.prewarm_events])
    assert len(prefix) == n  # one full pass, all distinct


def test_no_prewarm_for_zipf_only_specs():
    traces, _ = generate_traces(tiny_spec(), 1, 100, scale=256, seed=0)
    assert traces[0].prewarm_events == 0


def test_page_sparse_blocks_land_in_distinct_pages():
    traces, layout = generate_traces(
        tiny_spec(page_sparse=True), 1, 4000, scale=256, seed=0)
    lo, hi = layout.region_ranges["data"]
    blocks = {b for b in traces[0].blocks if lo <= b < hi}
    pages = {b // BLOCKS_PER_PAGE for b in blocks}
    # ~one page per block modulo birthday collisions (n blocks thrown
    # into n pages leave ~63% of pages singly occupied) -- versus the
    # dense layout's 64 blocks per page
    assert len(pages) > 0.55 * len(blocks)


def test_page_sparse_span_is_64x():
    _, dense = generate_traces(tiny_spec(), 1, 10, scale=256, seed=0)
    _, sparse = generate_traces(tiny_spec(page_sparse=True), 1, 10,
                                scale=256, seed=0)
    dlo, dhi = dense.region_ranges["data"]
    slo, shi = sparse.region_ranges["data"]
    assert (shi - slo) == (dhi - dlo) * BLOCKS_PER_PAGE


def test_zipf_ranks_are_skewed():
    rng = np.random.default_rng(0)
    ranks = zipf_ranks(1000, 1.0, 20000, rng)
    top = np.sum(ranks < 10) / ranks.size
    assert top > 0.2  # top-1% of items draw > 20% of accesses


def test_zipf_zero_alpha_is_uniform():
    rng = np.random.default_rng(0)
    ranks = zipf_ranks(1000, 0.0, 20000, rng)
    assert np.sum(ranks < 10) / ranks.size < 0.05


def test_zipf_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        zipf_ranks(0, 1.0, 10, rng)
    assert zipf_ranks(10, 1.0, 0, rng).size == 0


def test_region_blocks_scaling_and_floor():
    assert region_blocks(64.0, 64) == 64 * 1024 * 1024 // (64 * 64)
    assert region_blocks(0.001, 1024) == 16  # floored


def test_instr_per_event_matches_rates():
    traces, _ = generate_traces(WEB_SEARCH, 1, 10, scale=512, seed=0)
    p = WEB_SEARCH.core
    expected = 1.0 / (p.ifetch_per_instr + p.data_refs_per_instr)
    assert traces[0].instr_per_event == pytest.approx(expected)


def test_events_per_core_must_be_positive():
    with pytest.raises(ValueError):
        generate_traces(tiny_spec(), 1, 0)


# -- colocation -------------------------------------------------------------

def test_colocation_address_spaces_disjoint():
    s1, s2 = tiny_spec(), tiny_spec()
    traces, layouts = generate_colocation_traces(
        [(s1, [0, 1]), (s2, [2, 3])], events_per_core=500, scale=256)
    a = set(traces[0].blocks) | set(traces[1].blocks)
    b = set(traces[2].blocks) | set(traces[3].blocks)
    assert not a & b
    assert len(layouts) == 2


def test_colocation_rejects_overlapping_cores():
    with pytest.raises(ValueError):
        generate_colocation_traces(
            [(tiny_spec(), [0, 1]), (tiny_spec(), [1, 2])],
            events_per_core=10, scale=256)


def test_colocation_traces_ordered_by_core():
    traces, _ = generate_colocation_traces(
        [(tiny_spec(), [2]), (tiny_spec(), [0])], events_per_core=10,
        scale=256)
    assert [t.core_id for t in traces] == [0, 2]
