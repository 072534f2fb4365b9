"""Pin run keys bit for bit.

A run key (:meth:`RunRequest.key`) addresses every ``RunCache`` entry
and every job-server memo entry.  A key that changes for the same
request misses all of them silently, so this module pins the keys of a
fixed request grid -- every ``repro.core.systems`` configuration, and
each kind of field :meth:`RunRequest.canonical` writes (colocation
placements, a fault plan with vault events, ``track_sharing``, a
non-default chunk, estimate mode, L2 and DRAM-cache configurations,
the MissMap and SRAM-directory options) -- to goldens recorded under a
fixed fingerprint string.  A Hypothesis property checks that
``canonical()`` is exactly the ``dataclasses.asdict`` form it replaced
(kept here only) and round-trips through ``from_canonical``.

Record goldens only for a change that is meant to alter keys (and then
bump ``ENGINE_SCHEMA`` too)::

    PYTHONPATH=src python -m tests.test_run_keys --rewrite
"""

import dataclasses
import json
import os
import sys

from hypothesis import given, settings, strategies as st

from repro.core.systems import SYSTEM_LABELS, system_config
from repro.cores.perf_model import CoreParams
from repro.faults import FaultPlan
from repro.sim.engine import REQUEST_MODES, RunRequest
from repro.sim.sampling import PRESETS, SamplingPlan
from repro.workloads.enterprise import ENTERPRISE_WORKLOADS
from repro.workloads.scaleout import SCALEOUT_WORKLOADS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "run_keys_golden.json")
#: Stands in for the code fingerprint, so the goldens pin the request
#: encoding and nothing about the source tree.
FINGERPRINT = "run-keys-golden"

WORKLOADS = dict(sorted(list(SCALEOUT_WORKLOADS.items())
                        + list(ENTERPRISE_WORKLOADS.items())))
QUICK = PRESETS["quick"]
FAULTS = FaultPlan(seed=3, data_flip_rate=1e-3, tag_flip_rate=2.5e-4,
                   directory_flip_rate=1e-5, double_bit_fraction=0.25,
                   stall_rate=1e-4, stall_retries_max=3, target=2,
                   vault_events=((100, 1, "offline"),
                                 (5000, 1, "online")))


def _point(system, workload="web_search", cores=4, scale=256, **kwargs):
    overrides = kwargs.pop("config", {})
    return RunRequest.point(
        system_config(system, num_cores=cores, scale=scale, **overrides),
        WORKLOADS[workload], kwargs.pop("plan", QUICK),
        kwargs.pop("seed", 7), **kwargs)


def cases():
    """Name -> request of the pinned grid."""
    out = {"system/%s" % name: _point(name) for name in SYSTEM_LABELS}
    out.update({
        "silo/missmap": _point(
            "silo", config={"local_miss_predictor": "missmap"}),
        "silo/sram-directory": _point(
            "silo", config={"directory_cache": "sram"}),
        "silo/ideal-optimizations": _point(
            "silo", config={"local_miss_predictor": True,
                            "directory_cache": "ideal"}),
        "baseline/16-cores-oracle": _point("baseline", "oracle",
                                           cores=16, scale=64),
        "silo/standard-plan-seed-11": _point(
            "silo", "data_serving", plan=PRESETS["standard"], seed=11),
        "baseline/core-subset": _point("baseline", core_ids=(1, 3)),
        "baseline/track-sharing": _point("baseline", track_sharing=True),
        "baseline/chunk-7": _point("baseline", chunk=7),
        "baseline/faults": _point("baseline", faults=FAULTS),
        "silo/estimate": _point("silo", mode="estimate"),
        "silo_co/estimate-16-cores": _point(
            "silo_co", "mapreduce", cores=16, scale=128,
            mode="estimate"),
        "silo/colocation": RunRequest.colocation(
            system_config("silo", num_cores=4, scale=256),
            [(WORKLOADS["web_search"], (0, 1)),
             (WORKLOADS["data_serving"], (3, 2))], QUICK, 7),
        "baseline/colocation-faults-estimate": RunRequest.colocation(
            system_config("baseline", num_cores=4, scale=256),
            [(WORKLOADS["tpcc"], (2,)), (WORKLOADS["zeus"], (0, 1, 3))],
            QUICK, 5, chunk=64, faults=FAULTS, mode="estimate"),
    })
    return out


def keys():
    return {name: req.key(FINGERPRINT) for name, req in cases().items()}


def asdict_canonical(request):
    """The ``dataclasses.asdict`` construction ``canonical()`` used
    before it walked the fields itself: the reference it must equal."""
    asdict = dataclasses.asdict
    return {
        "config": asdict(request.config),
        "placements": [{"spec": asdict(spec), "core_ids": list(ids)}
                       for spec, ids in request.placements],
        "plan": asdict(request.plan),
        "seed": request.seed,
        "colocated": request.colocated,
        "track_sharing": request.track_sharing,
        "chunk": request.chunk,
        "faults": (None if request.faults is None
                   else request.faults.canonical()),
        "mode": request.mode,
    }


def test_run_keys_match_goldens():
    with open(GOLDEN) as f:
        golden = json.load(f)
    assert keys() == golden


# ---------------------------------------------------------------------------
# random requests
# ---------------------------------------------------------------------------

RATES = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def fault_plans(draw, cores):
    ticks = sorted(draw(st.lists(st.integers(0, 10 ** 9), max_size=3)))
    return FaultPlan(
        seed=draw(st.integers(0, 2 ** 32)),
        data_flip_rate=draw(RATES), tag_flip_rate=draw(RATES),
        directory_flip_rate=draw(RATES),
        double_bit_fraction=draw(RATES), stall_rate=draw(RATES),
        stall_retries_max=draw(st.integers(1, 8)),
        target=draw(st.none() | st.integers(0, cores - 1)),
        vault_events=tuple(
            (tick, draw(st.integers(0, cores - 1)),
             draw(st.sampled_from(("offline", "online"))))
            for tick in ticks))


@st.composite
def run_requests(draw):
    system = draw(st.sampled_from(sorted(SYSTEM_LABELS)))
    cores = draw(st.sampled_from((1, 4, 16)))
    overrides = {}
    if system in ("silo", "silo_co", "3level_silo"):
        overrides = {
            "local_miss_predictor": draw(st.sampled_from(
                (False, True, "ideal", "missmap"))),
            "directory_cache": draw(st.sampled_from(
                (False, True, "ideal", "sram")))}
    config = system_config(system, num_cores=cores,
                           scale=draw(st.sampled_from((64, 128, 256, 512))),
                           **overrides)
    plan = SamplingPlan(draw(st.integers(0, 10 ** 6)),
                        draw(st.integers(1, 10 ** 6)))
    names = draw(st.lists(st.sampled_from(sorted(WORKLOADS)),
                          min_size=1, max_size=min(cores, 3)))
    specs = [dataclasses.replace(WORKLOADS[name], core=CoreParams(
        base_cpi=draw(st.floats(0.05, 8.0)),
        mlp=draw(st.floats(1.0, 16.0)))) for name in names]
    common = dict(
        plan=plan, seed=draw(st.integers(0, 2 ** 63)),
        chunk=draw(st.integers(1, 4096)),
        faults=draw(st.none() | fault_plans(cores)),
        mode=draw(st.sampled_from(REQUEST_MODES)))
    order = draw(st.permutations(range(cores)))
    if len(specs) == 1 and draw(st.booleans()):
        used = draw(st.integers(1, cores))
        return RunRequest.point(config, specs[0],
                                core_ids=tuple(order[:used]),
                                track_sharing=draw(st.booleans()),
                                **common)
    cuts = sorted(draw(st.sets(st.integers(1, cores - 1),
                               min_size=len(specs) - 1,
                               max_size=len(specs) - 1))) \
        if len(specs) > 1 else []
    bounds = [0] + cuts + [cores]
    return RunRequest.colocation(
        config, [(spec, tuple(order[lo:hi])) for spec, lo, hi
                 in zip(specs, bounds, bounds[1:])], **common)


@settings(max_examples=150, deadline=None)
@given(run_requests())
def test_canonical_is_the_asdict_form_and_round_trips(req):
    wire = req.canonical()
    # repr, not ==: True == 1 and 1 == 1.0, but they key differently.
    assert repr(wire) == repr(asdict_canonical(req))
    back = RunRequest.from_canonical(json.loads(json.dumps(wire)))
    assert back == req
    assert repr(back.canonical()) == repr(wire)
    assert back.key(FINGERPRINT) == req.key(FINGERPRINT)


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: python -m tests.test_run_keys --rewrite")
    with open(GOLDEN, "w") as f:
        json.dump(keys(), f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %d run keys to %s" % (len(keys()), GOLDEN))
