"""Where serve-cold's repeat share comes from.

Run from the checkout root as ``python3 -m perfbench.traffic``.  Runs
every simulating experiment at the experiment CLI's defaults (scale 64,
seed 7) under an engine that records each batch as ``--server`` would
post it -- ``ClientEngine`` folds duplicates within a batch -- and
prints how many posted requests repeat an earlier request's key.  The
points resolve in estimate mode; points the estimator does not cover
simulate under a short sampling plan that every experiment shares, so
keys stay comparable across experiments.
"""

import json
import sys

from perfbench import common

PLAN = "2000:1000"
#: Experiments that resolve no points (the CLI passes them no seed).
NO_POINTS = ("fig7", "fig8", "table1", "validate_tech", "characterize")


def posted_keys():
    """experiment -> canonical keys it posts, in order, per batch."""
    from repro.experiments import EXPERIMENTS
    from repro.sim.engine import RunEngine, use_engine
    from repro.sim.sampling import parse_plan

    class RecordingEngine(RunEngine):
        def run(self, requests):
            requests = list(requests)
            batch = []
            for req in requests:
                canon = json.dumps(req.canonical(), sort_keys=True)
                if canon not in batch:
                    batch.append(canon)
            self.batches.append(batch)
            return super().run(requests)

    out = {}
    for name, func in EXPERIMENTS.items():
        if name in NO_POINTS:
            continue
        engine = RecordingEngine(jobs=1, cache=None, mode="estimate")
        engine.batches = []
        with use_engine(engine):
            func(scale=64, seed=7, plan=parse_plan(PLAN))
        out[name] = engine.batches
    return out


def main():
    common.prepare_checkout()
    batches = posted_keys()
    posted = [key for name in batches for batch in batches[name]
              for key in batch]
    for name, per_batch in batches.items():
        print("%-16s %d batches, %d posted requests"
              % (name, len(per_batch), sum(map(len, per_batch))))
    repeats = len(posted) - len(set(posted))
    print("%d of %d posted requests repeat an earlier key (%.3f)"
          % (repeats, len(posted), repeats / len(posted)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
