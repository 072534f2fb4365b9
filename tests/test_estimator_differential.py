"""Differential validation envelope for the analytic estimator.

The estimator (repro.analytic.estimator) is only as trustworthy as its
measured distance from the trace-driven simulator.  This harness sweeps
the envelope -- vault capacities x shared-LLC associativities x Zipf
skew x core counts -- resolving every point both ways and recording the
worst-case error per observable into the checked-in
``tools/estimator-envelope.json``.  That file is the estimator's
contract: :func:`repro.analytic.estimator.error_bounds` reads the
recorded worst cases, ``EstimateSummary`` stamps them into manifests,
and ``auto`` mode's trust region (:func:`in_trust_region` /
:func:`triage`) refuses to estimate outside the swept ranges.

Two tiers:

* ``unit`` -- always runs: synthetic parametric workloads at test
  scale (512), both organizations, 4 and 16 cores.
* ``ci`` -- the real scale-out suite at CI scale (64) with the paper's
  16-core systems; slower, gated behind ``REPRO_ESTIMATOR_CI=1`` and
  the ``slow`` marker (the estimator-differential CI job runs it).

Regenerate the envelope after a deliberate model change with::

    REPRO_ESTIMATOR_WRITE=1 python -m pytest \
        tests/test_estimator_differential.py -m ''

(plus ``REPRO_ESTIMATOR_CI=1`` to refresh the ci tier).  Every tier
asserts its measured worst case <= the documented bound
(:data:`repro.analytic.estimator.DOCUMENTED_BOUNDS`) *and* <= the
recorded envelope plus a small drift slack, so silent model regressions
fail even while still inside the documented contract.
"""

import json
import os

import pytest

from repro import params as P
from repro.analytic import estimator as est
from repro.core.systems import baseline_config, silo_config, system_config
from repro.cores.perf_model import (
    CoreParams, LEVEL_DRAM_CACHE, LEVEL_L1, LEVEL_LLC_LOCAL,
    LEVEL_LLC_REMOTE, LEVEL_MEMORY)
from repro.sim.engine import RunEngine, RunRequest
from repro.sim.sampling import PRESETS, SamplingPlan
from repro.workloads.base import CodeSpec, RegionSpec, WorkloadSpec
from repro.workloads.scaleout import SCALEOUT_WORKLOADS

MB = 1 << 20
SEED = 7

ENVELOPE_SCHEMA = "silo-repro-estimator-envelope/1"

#: Allowed upward drift of a measured worst case over the recorded
#: envelope before the harness demands regeneration.
DRIFT_SLACK = 0.005

#: The trust region recorded into the envelope: the ranges this sweep
#: actually covered.  ``auto`` mode only estimates inside it.
TRUST = {
    "scale_min": 64,
    "scale_max": 512,
    "num_cores": [4, 16],
    "llc_kinds": ["shared", "private_vault"],
    "min_measure_events": 4000,
    # Boundary width multiplier on the performance_ratio bound.  The
    # bound itself already floors at documented/4, above the recorded
    # worst case, so no extra slack is stacked on top of it.
    "ratio_margin": 1.0,
}

#: Zipf exponents swept by the unit tier (uniform-ish tail, the
#: workload models' hot-region and heap skews).
ALPHAS = (0.8, 1.1, 1.35)

UNIT_PLAN = SamplingPlan(12_000, 5_000)
UNIT_SCALE = 512


def sweep_spec(alpha):
    """A parametric scale-out-shaped workload: shared hot set and heap
    at Zipf ``alpha``, a partitioned scan, a read-write-shared region
    and a cold tail.  Spans the reference-class kinds the estimator
    models (vec/uniform/cycle, private/shared/partitioned)."""
    return WorkloadSpec(
        name="sweep_a%03d" % round(alpha * 100),
        code=CodeSpec(size_mb=2.0, alpha=1.10),
        regions=(
            RegionSpec("hot", 1.5, "zipf", "shared", 0.030, alpha=alpha,
                       write_fraction=0.05),
            RegionSpec("scan", 400.0, "scan", "partitioned", 0.045,
                       page_sparse=True),
            RegionSpec("heap", 0.125, "zipf", "private", 0.858,
                       alpha=alpha, write_fraction=0.30),
            RegionSpec("rw", 0.5, "zipf", "shared", 0.012, alpha=0.60,
                       write_fraction=0.30),
            RegionSpec("cold", 32000.0, "uniform", "shared", 0.055),
        ),
        core=CoreParams(base_cpi=0.75, mlp=3.8, data_refs_per_instr=0.25),
        rw_shared_region="rw",
    )


def _unit_configs(num_cores):
    """Capacity x associativity axes: two vault capacities (SILO) and
    two shared-NUCA associativities at matched capacity."""
    return [
        silo_config(num_cores=num_cores, scale=UNIT_SCALE,
                    name="sweep-silo-64mb", llc_size_bytes=64 * MB),
        silo_config(num_cores=num_cores, scale=UNIT_SCALE,
                    name="sweep-silo-256mb"),
        baseline_config(num_cores=num_cores, scale=UNIT_SCALE,
                        name="sweep-shared-1w",
                        llc_size_bytes=256 * MB, llc_ways=1),
        baseline_config(num_cores=num_cores, scale=UNIT_SCALE,
                        name="sweep-shared-16w",
                        llc_size_bytes=256 * MB),
    ]


def unit_grid():
    """(label, RunRequest) points of the unit tier plus the
    organization pairs compared for the performance-ratio observable."""
    points = []
    pairs = []
    for num_cores in (4, 16):
        alphas = ALPHAS if num_cores == 4 else (1.1,)
        for alpha in alphas:
            spec = sweep_spec(alpha)
            start = len(points)
            for config in _unit_configs(num_cores):
                points.append((
                    "%s/%s/c%d" % (spec.name, config.name, num_cores),
                    RunRequest.point(config, spec, UNIT_PLAN, SEED)))
            # ratio: 256 MB SILO vs the 16-way shared NUCA
            pairs.append((start + 1, start + 3))
    return points, pairs


def ci_grid():
    """CI tier: the real scale-out suite on the paper's 16-core
    baseline and SILO systems at CI scale."""
    plan = PRESETS["quick"]
    points = []
    pairs = []
    for wname, spec in SCALEOUT_WORKLOADS.items():
        start = len(points)
        for sname in ("silo", "baseline"):
            points.append((
                "%s/%s/c%d" % (wname, sname, P.NUM_CORES),
                RunRequest.point(system_config(sname, scale=64), spec,
                                 plan, SEED)))
        pairs.append((start, start + 1))
    return points, pairs


# ---------------------------------------------------------------------------
# error accounting
# ---------------------------------------------------------------------------


def _fractions(summary):
    counts = summary.level_counts()
    total = max(1, sum(counts))
    return [c / total for c in counts]


def point_errors(sim, estimate):
    """Per-observable error of one estimated point vs its simulation
    (absolute for level fractions, relative for performance/energy)."""
    fs, fe = _fractions(sim), _fractions(estimate)
    return {
        "l1_hit_rate": abs(fe[LEVEL_L1] - fs[LEVEL_L1]),
        "llc_local_fraction": abs(fe[LEVEL_LLC_LOCAL]
                                  - fs[LEVEL_LLC_LOCAL]),
        "llc_remote_fraction": abs(fe[LEVEL_LLC_REMOTE]
                                   - fs[LEVEL_LLC_REMOTE]),
        "dram_cache_fraction": abs(fe[LEVEL_DRAM_CACHE]
                                   - fs[LEVEL_DRAM_CACHE]),
        "memory_fraction": abs(fe[LEVEL_MEMORY] - fs[LEVEL_MEMORY]),
        "performance": abs(estimate.performance() / sim.performance()
                           - 1.0),
        "energy_total_dynamic": abs(
            estimate.energy["total_dynamic_nj"]
            / max(sim.energy["total_dynamic_nj"], 1e-12) - 1.0),
    }


def run_sweep(points, pairs):
    """Resolve every point twice and fold the errors: returns the tier
    record {points, worst, rows}."""
    requests = [req for _label, req in points]
    sims = RunEngine(jobs=1).run(requests)
    estimates = [est.estimate_request(req) for req in requests]

    worst = {}
    rows = []
    for (label, _req), sim, estimate in zip(points, sims, estimates):
        errs = point_errors(sim, estimate)
        rows.append({"point": label, "errors": errs})
        for obs, err in errs.items():
            worst[obs] = max(worst.get(obs, 0.0), err)
    for i, j in pairs:
        ratio_sim = sims[i].performance() / sims[j].performance()
        ratio_est = estimates[i].performance() / estimates[j].performance()
        err = abs(ratio_est / ratio_sim - 1.0)
        rows.append({"point": "%s vs %s" % (points[i][0], points[j][0]),
                     "errors": {"performance_ratio": err}})
        worst["performance_ratio"] = max(
            worst.get("performance_ratio", 0.0), err)
    return {"points": len(points), "worst": worst, "rows": rows}


# ---------------------------------------------------------------------------
# envelope file plumbing
# ---------------------------------------------------------------------------


def _write_tier(tier_name, tier):
    """Under REPRO_ESTIMATOR_WRITE=1, merge this tier's record into the
    envelope file (creating it if needed).  Returns True when a write
    happened (the test then skips the comparison against itself)."""
    if os.environ.get("REPRO_ESTIMATOR_WRITE") != "1":
        return False
    path = est.envelope_path()
    envelope = est.load_envelope(path) or {}
    envelope["schema"] = ENVELOPE_SCHEMA
    envelope["trust"] = TRUST
    tiers = envelope.setdefault("tiers", {})
    # the checked-in file records the contract, not every point
    tiers[tier_name] = {"points": tier["points"],
                        "worst": tier["worst"]}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(envelope, f, indent=2, sort_keys=True)
        f.write("\n")
    return True


def _assert_tier(tier_name, tier):
    """The envelope contract: measured worst cases <= documented
    bounds, and <= the recorded envelope (+ drift slack) so the
    checked-in record stays honest."""
    for obs, measured in tier["worst"].items():
        bound = est.DOCUMENTED_BOUNDS[obs]
        assert measured <= bound, \
            "%s tier: %s worst-case error %.4f exceeds documented " \
            "bound %.4f" % (tier_name, obs, measured, bound)
    if _write_tier(tier_name, tier):
        return
    envelope = est.load_envelope()
    assert envelope, \
        "missing %s; regenerate with REPRO_ESTIMATOR_WRITE=1" \
        % est.envelope_path()
    recorded = envelope["tiers"][tier_name]["worst"]
    for obs, measured in tier["worst"].items():
        assert measured <= recorded[obs] + DRIFT_SLACK, \
            "%s tier: %s drifted to %.4f (recorded %.4f); regenerate " \
            "the envelope if the change is deliberate" \
            % (tier_name, obs, measured, recorded[obs])
    for obs, rec in recorded.items():
        assert rec <= est.DOCUMENTED_BOUNDS[obs]


# ---------------------------------------------------------------------------
# tiers
# ---------------------------------------------------------------------------


def test_unit_envelope_sweep():
    points, pairs = unit_grid()
    _assert_tier("unit", run_sweep(points, pairs))


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("REPRO_ESTIMATOR_CI") != "1",
                    reason="CI-scale sweep (set REPRO_ESTIMATOR_CI=1)")
def test_ci_envelope_sweep():
    points, pairs = ci_grid()
    _assert_tier("ci", run_sweep(points, pairs))


# ---------------------------------------------------------------------------
# the envelope gates auto mode
# ---------------------------------------------------------------------------


def test_envelope_defines_auto_trust_region():
    """The recorded trust region matches what was actually swept, and
    in_trust_region honours it."""
    envelope = est.load_envelope()
    assert envelope, "regenerate with REPRO_ESTIMATOR_WRITE=1"
    assert envelope["schema"] == ENVELOPE_SCHEMA
    assert envelope["trust"] == TRUST

    spec = sweep_spec(1.1)
    inside = RunRequest.point(
        silo_config(num_cores=4, scale=UNIT_SCALE), spec, UNIT_PLAN,
        SEED)
    assert est.in_trust_region(inside, envelope)
    outside_scale = RunRequest.point(
        silo_config(num_cores=4, scale=1024), spec, UNIT_PLAN, SEED)
    assert not est.in_trust_region(outside_scale, envelope)
    outside_cores = RunRequest.point(
        silo_config(num_cores=9, scale=UNIT_SCALE), spec, UNIT_PLAN,
        SEED)
    assert not est.in_trust_region(outside_cores, envelope)
    tiny_plan = RunRequest.point(
        silo_config(num_cores=4, scale=UNIT_SCALE), spec,
        SamplingPlan(1000, 500), SEED)
    assert not est.in_trust_region(tiny_plan, envelope)


def test_error_bounds_never_loosen_past_documented():
    bounds = est.error_bounds()
    for obs, bound in bounds.items():
        assert bound <= est.DOCUMENTED_BOUNDS[obs]
        assert bound >= est.DOCUMENTED_BOUNDS[obs] / 4.0
