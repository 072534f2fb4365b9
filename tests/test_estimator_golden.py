"""Pin every analytic estimate bit for bit to recorded goldens.

The differential harness (tests/test_estimator_differential.py) bounds
the estimator's distance from the simulator; it does not notice an
estimate that moves inside those bounds.  This module resolves a fixed
grid through :func:`repro.analytic.estimator.estimate_request` -- the
eight scale-out and enterprise workloads x Baseline, SILO, SILO-CO and
Vaults-Sh x 4 and 16 cores x scales 64 to 512 x the quick and standard
plans, the space the job server's cold traffic draws from -- and
compares a SHA-256 over each ``EstimateSummary.to_dict()`` (JSON, keys
sorted, floats by repr) with a recorded golden, one digest per
(system, workload) pair.  It also pins the characteristic-time memo:
changing any input that determines a Che solve must solve again.

Estimates go through numpy's ``expm1``, ``power`` and pairwise sums,
whose last bits depend on the numpy build and the CPU's vector unit.
The goldens carry a canary digest of those three kernels on fixed
inputs; on a host whose canary differs the grid cannot be compared and
the golden test skips, saying so.  Record goldens for the current host
only for a change that is meant to alter estimates::

    PYTHONPATH=src python -m tests.test_estimator_golden --rewrite
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.analytic import estimator as est
from repro.core.systems import system_config
from repro.sim.engine import RunRequest
from repro.sim.sampling import PRESETS
from repro.workloads.enterprise import ENTERPRISE_WORKLOADS
from repro.workloads.scaleout import SCALEOUT_WORKLOADS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "estimator_golden.json")

WORKLOADS = dict(sorted(list(SCALEOUT_WORKLOADS.items())
                        + list(ENTERPRISE_WORKLOADS.items())))
SYSTEMS = ("baseline", "silo", "silo_co", "vaults_sh")
CORES = (4, 16)
SCALES = (64, 128, 256, 512)
PLANS = ("quick", "standard")
SEED = 7


def numpy_canary():
    """Digest of the numpy kernels estimates depend on, on fixed
    inputs: equal canaries mean equal last bits."""
    x = np.linspace(1e-6, 40.0, 4099)
    parts = [np.expm1(x * -0.37), x ** -0.93,
             np.array([np.add.reduce(x * 1.1)])]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


def grid(system, workload):
    spec = WORKLOADS[workload]
    return [RunRequest.point(system_config(system, num_cores=cores,
                                           scale=scale),
                             spec, PRESETS[plan], SEED, mode="estimate")
            for cores in CORES for scale in SCALES for plan in PLANS]


def digest(requests):
    h = hashlib.sha256()
    for req in requests:
        summary = est.estimate_request(req)
        h.update(json.dumps(summary.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def cases():
    return ["%s/%s" % (system, workload) for system in SYSTEMS
            for workload in WORKLOADS]


def load_golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("case", cases())
def test_estimates_match_golden(case):
    golden = load_golden()
    if golden["numpy_canary"] != numpy_canary():
        pytest.skip("goldens were recorded under a numpy build whose "
                    "expm1/power/sum bits differ from this host's")
    system, workload = case.split("/")
    assert digest(grid(system, workload)) == golden["digests"][case]


# ---------------------------------------------------------------------------
# the characteristic-time memo
# ---------------------------------------------------------------------------


def _request(system="baseline", workload="web_search", cores=16,
             scale=256, plan="quick", core_ids=None, **overrides):
    config = system_config(system, num_cores=cores, scale=scale,
                           **overrides)
    return RunRequest.point(config, WORKLOADS[workload], PRESETS[plan],
                            SEED, core_ids=core_ids, mode="estimate")


@pytest.fixture
def solves(monkeypatch):
    """Count Che bisections, starting from an empty memo."""
    calls = []
    real = est.solve_characteristic_time

    def counted(classes, capacity, horizon):
        calls.append(capacity)
        return real(classes, capacity, horizon)

    est.clear_memo()
    monkeypatch.setattr(est, "solve_characteristic_time", counted)
    yield calls
    est.clear_memo()


def _blob(req):
    return json.dumps(est.estimate_request(req).to_dict(), sort_keys=True)


def test_a_repeated_point_solves_nothing(solves):
    first = _blob(_request())
    assert solves
    before = len(solves)
    assert _blob(_request()) == first
    assert len(solves) == before


def test_organizations_share_the_l1_solves(solves):
    _blob(_request("baseline"))
    before = len(solves)
    # SILO's L1s see the same classes at the same geometry; its vaults
    # are direct-mapped, so nothing is left to solve.
    _blob(_request("silo"))
    assert len(solves) == before


@pytest.mark.parametrize("change", [
    dict(workload="data_serving"),
    dict(core_ids=(0, 1, 2, 3)),
    dict(scale=128),
    # a scaled L1 sits at the 64-block floor up to 1 MB at scale 256
    dict(l1_size_bytes=8 << 20),
    dict(l1_ways=4),
    dict(llc_size_bytes=4 << 20),
    dict(plan="standard"),
], ids=["spec", "driven_cores", "scale", "l1_size", "l1_ways",
        "llc_size", "plan"])
def test_changing_an_input_solves_again(solves, change):
    _blob(_request())
    before = len(solves)
    changed = _request(**change)
    warm = _blob(changed)
    assert len(solves) > before
    est.clear_memo()
    assert warm == _blob(changed)       # the memo served no stale time


def test_memo_holds_floats_only_and_stays_bounded(solves):
    for scale in (64, 128, 256, 512):
        for plan in ("quick", "standard"):
            _blob(_request(scale=scale, plan=plan))
    memo = est._CHE_MEMO
    assert memo and all(type(t) is float for t in memo.values())
    assert len(memo) <= est.CHE_MEMO_LIMIT


def test_bisection_stops_at_its_fixed_point(monkeypatch):
    # With the fixed-point exit a solve costs about 65 occupancy
    # evaluations, not the ~105 of a hundred-step bisection.
    classes = est.build_core_classes(WORKLOADS["web_search"], 16, 256)[1]
    calls = []
    real = est._occupancy

    def counted(cls, t):
        calls.append(t)
        return real(cls, t)

    monkeypatch.setattr(est, "_occupancy", counted)
    t = est.solve_characteristic_time(classes, 128, 1e9)
    assert 0.0 < t < 1e9
    assert len(calls) < 90


def rewrite():
    data = {"numpy_canary": numpy_canary(),
            "digests": {case: digest(grid(*case.split("/")))
                        for case in cases()}}
    with open(GOLDEN, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--rewrite"]:
        rewrite()
    else:
        sys.exit("usage: python -m tests.test_estimator_golden --rewrite")
