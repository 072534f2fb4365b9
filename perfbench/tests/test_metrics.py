"""Every end-to-end metric is defined, and every per-layer metric names
the end-to-end metric it should move."""

from perfbench.metrics import DEFINITIONS, MOVES, load, units


def test_every_per_layer_metric_has_a_moves_entry():
    assert set(MOVES) == set(units(load(), "per_layer"))


def test_every_moved_metric_is_a_real_workload_and_metric():
    bench = load()
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = units(bench, "end_to_end")
    for moves in MOVES.values():
        if moves is not None:
            workload, metric = moves
            assert workload in workloads and metric in end_to_end


def test_every_end_to_end_metric_is_defined():
    assert set(DEFINITIONS) == set(units(load(), "end_to_end"))


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in load()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
