"""Repository benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload simulate --seed 7 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
repeats the workload's timed phase untraced and then traced, and prints
the per-layer metrics plus ``trace.overhead``.  The last line of
standard output is the JSON verdict ``{"correct", "attempted",
"failed", "metrics"}``; everything before it is the human report: host
fingerprint, load average before and after, percentile sample counts
and the correctness checks.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from perfbench import common, metrics  # noqa: E402

DEFAULT_SEED = 7


def main(argv=None):
    bench = metrics.load()
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        common.prepare_checkout()
    except common.SetupError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    load_before = common.load1()
    tmp = tempfile.mkdtemp(prefix="run-", dir=common.SCRATCH)
    try:
        if args.workload == "simulate":
            from perfbench import simulate
            result, lines, dumped = simulate.run(
                args.seed, args.seconds, args.trace, DEFAULT_SEED)
        else:
            from perfbench import serve
            result, lines, dumped = serve.run(
                args.workload, args.seed, args.seconds, args.trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    host = common.host_fingerprint()
    host.update(workload=args.workload, seed=args.seed,
                load1_before=load_before, load1_after=common.load1())
    if dumped is not None:
        path = os.path.join(common.SCRATCH, "spans-%s-seed%d.json"
                            % (args.workload, args.seed))
        with open(path, "w") as f:
            json.dump(dumped, f)
        lines.append("spans written to %s" % os.path.relpath(
            path, common.ROOT))
    table = metrics.units(bench, "per_layer" if args.trace
                          else "end_to_end")
    measured = result["metrics"]
    if args.trace:
        # A layer that does no work on this workload reports 0 here.
        for name in table:
            measured.setdefault(name, 0.0)
    missing = [name for name in table if name not in measured]
    if missing:
        raise RuntimeError("metrics not measured: %s" % missing)
    common.emit(result, table, host, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
