"""DRAM technology studies (Sec. IV): Fig. 7, Fig. 8 and Table I."""

from repro import params as P
from repro.dram.sweep import (tile_dimension_sweep, sweep_vault_designs,
                              pareto_frontier, latency_optimized_point,
                              capacity_optimized_point)


def fig7_tile_sweep():
    """Fig. 7: normalized access latency and die area vs. (square) tile
    dimensions for a 1 Gb commodity-organization die."""
    rows = []
    for r in tile_dimension_sweep():
        rows.append({
            "tile": r["tile"],
            "norm_latency": r["norm_latency"],
            "norm_area": r["norm_area"],
            "latency_ns": r["latency_ns"],
            "area_mm2": r["area_mm2"],
        })
    return rows


def fig8_vault_space():
    """Fig. 8: the vault capacity / access-latency design space under a
    5 mm^2, 4-die stack budget.  Returns all sweep points (the scatter)
    with a ``pareto`` flag, plus the two selected design points."""
    points = sweep_vault_designs()
    frontier = set(id(p) for p in pareto_frontier(points))
    lo = latency_optimized_point(points)
    co = capacity_optimized_point(points)
    rows = []
    for p in points:
        tag = ""
        if p is lo:
            tag = "latency-optimized"
        elif p is co:
            tag = "capacity-optimized"
        rows.append({
            "capacity_mb": p.vault_capacity_mb,
            "latency_ns": p.access_time_ns,
            "pareto": id(p) in frontier,
            "selected": tag,
        })
    rows.sort(key=lambda r: (r["capacity_mb"], r["latency_ns"]))
    return rows


def table1_design_points():
    """Table I: latency- vs capacity-optimized vault designs, normalized
    to the latency-optimized point."""
    points = sweep_vault_designs()
    lo = latency_optimized_point(points)
    co = capacity_optimized_point(points)
    return [
        {"metric": "area_efficiency", "latency_optimized": 1.0,
         "capacity_optimized": co.area_efficiency() / lo.area_efficiency(),
         "paper_capacity_optimized": 1.74},
        {"metric": "number_of_tiles", "latency_optimized": 1.0,
         "capacity_optimized": co.die.total_tiles / lo.die.total_tiles,
         "paper_capacity_optimized": 0.25},
        {"metric": "access_latency", "latency_optimized": 1.0,
         "capacity_optimized": co.access_time_ns / lo.access_time_ns,
         "paper_capacity_optimized": 1.8},
        {"metric": "capacity_mb", "latency_optimized": lo.vault_capacity_mb,
         "capacity_optimized": co.vault_capacity_mb,
         "paper_capacity_optimized": 512},
        {"metric": "latency_ns", "latency_optimized": lo.access_time_ns,
         "capacity_optimized": co.access_time_ns,
         "paper_capacity_optimized": "~9.9"},
    ]


def derived_vault_cycles():
    """The Table II vault latencies derived from the technology model
    (used by tests to tie the DRAM study to the simulator's
    parameters)."""
    points = sweep_vault_designs()
    lo = latency_optimized_point(points)
    co = capacity_optimized_point(points)
    lo_cycles = round(lo.access_time_ns / P.NS_PER_CYCLE)
    co_cycles = round(co.access_time_ns / P.NS_PER_CYCLE)
    return {
        "latency_optimized_raw_cycles": lo_cycles,
        "capacity_optimized_raw_cycles": co_cycles,
        "latency_optimized_total_cycles": (
            lo_cycles + P.SILO_SERIALIZATION_LATENCY
            + P.SILO_CONTROLLER_LATENCY),
        "capacity_optimized_total_cycles": (
            co_cycles + P.SILO_SERIALIZATION_LATENCY
            + P.SILO_CONTROLLER_LATENCY),
    }
