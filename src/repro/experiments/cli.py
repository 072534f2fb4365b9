"""Command-line entry point: run any paper experiment.

Usage::

    python -m repro.experiments fig10
    python -m repro.experiments fig1 --sampling quick --scale 128
    python -m repro.experiments fig10 --sampling 40000:15000
    python -m repro.experiments fig3 --stats --trace 4096 --manifest out/
    silo-repro table6
"""

import argparse
import contextlib
import inspect
import sys
import time

from repro.core.systems import check_scale
from repro.experiments import EXPERIMENTS
from repro.experiments.common import notice, render_table
from repro.obs import manifest as obs_manifest
from repro.obs import session as obs_session
from repro.obs import stats as obs_stats
from repro.params import NUM_CORES
from repro.sim import engine as sim_engine
from repro.sim.driver import DEFAULT_CHUNK, use_chunk
from repro.sim.sampling import PRESETS, from_env, parse_plan


def _sampling_arg(spec):
    """argparse type for --sampling: preset name or warmup:measure."""
    try:
        return parse_plan(spec)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _int_at_least(low):
    """argparse type for an integer flag that must be >= ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected an integer, got %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be >= %d, got %d" % (low, value))
        return value
    return parse


def _scale_arg(text):
    """argparse type for --scale: an integer at which every evaluated
    system builds."""
    value = _int_at_least(1)(text)
    try:
        check_scale(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return value


def main(argv=None):
    """Parse arguments, run the requested experiment, print its table
    (and optional chart/JSON/stats/trace/manifest); returns the process
    exit code."""
    parser = argparse.ArgumentParser(
        prog="silo-repro",
        description="Reproduce a figure/table from the SILO paper "
                    "(MICRO'18).")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS),
                        help="experiment id (see DESIGN.md)")
    parser.add_argument("--sampling", type=_sampling_arg, default=None,
                        metavar="PLAN",
                        help="sampling plan: %s or a custom "
                             "'warmup:measure' event pair (default: "
                             "$REPRO_SAMPLING or 'standard')"
                             % "/".join(sorted(PRESETS)))
    parser.add_argument("--scale", type=_scale_arg, default=64,
                        help="capacity/footprint scale divisor "
                             "(default 64)")
    parser.add_argument("--seed", type=_int_at_least(0), default=7)
    parser.add_argument("--chart", action="store_true",
                        help="render an ASCII chart after the table "
                             "(where the experiment has one)")
    parser.add_argument("--json", action="store_true",
                        help="emit {experiment, elapsed_s, rows} as "
                             "JSON instead of a table")
    parser.add_argument("--stats", action="store_true",
                        help="print every statistic of the last "
                             "simulated system (System.stats()), one "
                             "'path value' line each")
    parser.add_argument("--trace", type=int, default=0, metavar="N",
                        help="trace coherence/directory/eviction events "
                             "into an N-entry ring; prints a summary "
                             "and the last few events")
    parser.add_argument("--manifest", default=None, metavar="DIR",
                        help="write a JSON run-provenance manifest "
                             "(config, seed, git sha, wall clock, "
                             "events/sec, latency percentiles) to DIR")
    parser.add_argument("--telemetry", type=int, default=None,
                        metavar="N",
                        help="sample windowed telemetry (per-core hit "
                             "rates, NoC hops, vault occupancy, phase "
                             "detection) every N driven events "
                             "(default: off)")
    parser.add_argument("--profile", action="store_true",
                        help="sampled wall-clock self-profile of the "
                             "simulator by layer (sim.driver, "
                             "sim.system, caches, coherence, noc, "
                             "memory, cores, ...)")
    parser.add_argument("--faults", type=float, default=None,
                        metavar="RATE",
                        help="inject bit-flip faults (data/tag/"
                             "directory) at RATE per eligible access; "
                             "for 'resilience' this replaces the "
                             "default rate sweep")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault draw stream "
                             "(default 0; independent of --seed)")
    parser.add_argument("--fault-target", type=int, default=None,
                        metavar="V",
                        help="restrict injected faults to vault/bank V "
                             "in [0, %d) (default: all)" % NUM_CORES)
    parser.add_argument("--fault-stalls", type=float, default=None,
                        metavar="RATE",
                        help="inject transient memory-channel stalls "
                             "at RATE per channel access")
    parser.add_argument("--mode", choices=sorted(sim_engine.ENGINE_MODES),
                        default="simulate",
                        help="point resolution policy: 'simulate' runs "
                             "the trace-driven simulator everywhere, "
                             "'estimate' resolves every capable point "
                             "through the analytic estimator "
                             "(repro.analytic.estimator), 'auto' "
                             "estimates inside the validated envelope "
                             "and simulates boundary/untrusted points")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="simulate up to N grid points in parallel "
                             "worker processes (default: $REPRO_JOBS "
                             "or 1 = serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="on-disk run cache for simulated points "
                             "(default: $REPRO_CACHE_DIR or "
                             "~/.cache/silo-repro)")
    parser.add_argument("--cache-max-bytes", default=None,
                        metavar="BYTES",
                        help="LRU size cap on the run cache, with "
                             "optional k/m/g suffix (default: "
                             "$REPRO_CACHE_MAX_BYTES or unbounded)")
    parser.add_argument("--server", default=None, metavar="URL",
                        help="simulate every grid point on a "
                             "repro.serve job server instead of "
                             "locally (e.g. http://127.0.0.1:8421)")
    parser.add_argument("--priority", default="batch",
                        choices=("interactive", "batch"),
                        help="request class when submitting through "
                             "--server (default batch)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the run cache (every point "
                             "simulates)")
    parser.add_argument("--chunk", type=int, default=None, metavar="N",
                        help="core-interleave grain in events "
                             "(default: %d)" % DEFAULT_CHUNK)
    args = parser.parse_args(argv)
    if args.trace < 0:
        parser.error("--trace must be positive")
    if args.telemetry is not None and args.telemetry < 0:
        parser.error("--telemetry must be >= 0 (0 = off)")
    telemetry_every = args.telemetry or 0
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.chunk is not None and args.chunk < 1:
        parser.error("--chunk must be >= 1")
    for flag, value in (("--faults", args.faults),
                        ("--fault-stalls", args.fault_stalls)):
        if value is not None and not 0.0 <= value <= 1.0:
            parser.error("%s must be a rate in [0, 1]" % flag)
    # Every experiment builds NUM_CORES-core systems, with one vault
    # or LLC bank per core.
    if args.fault_target is not None \
            and not 0 <= args.fault_target < NUM_CORES:
        parser.error("--fault-target must be a vault/bank id in "
                     "[0, %d), got %d" % (NUM_CORES, args.fault_target))

    func = EXPERIMENTS[args.experiment]
    # Each experiment gets the scale, seed and plan its signature takes.
    params = inspect.signature(func).parameters
    kwargs = {name: value for name, value in (("scale", args.scale),
                                              ("seed", args.seed))
              if name in params}
    if "plan" in params:
        try:
            kwargs["plan"] = (args.sampling if args.sampling is not None
                              else from_env())
        except ValueError as e:     # a malformed $REPRO_SAMPLING
            parser.error(str(e))

    # Fault flags: an experiment that sweeps faults itself takes them as
    # explicit sweep kwargs; every other simulating experiment gets an
    # ambient FaultPlan that RunRequest.point picks up (see
    # repro.faults.use_plan).
    fault_plan = None
    any_fault_flag = (args.faults is not None
                      or args.fault_stalls is not None)
    if "fault_seed" in params:
        kwargs["fault_seed"] = args.fault_seed
        if args.fault_target is not None:
            kwargs["target"] = args.fault_target
        if args.faults is not None:
            kwargs["rates"] = (0.0, args.faults)
        if args.fault_stalls is not None:
            parser.error("--fault-stalls does not apply to '%s' (it "
                         "sweeps bit-flip rates)" % args.experiment)
    elif any_fault_flag:
        if "seed" not in params:
            parser.error("--faults/--fault-stalls: experiment '%s' "
                         "runs no simulation" % args.experiment)
        from repro.faults import FaultPlan
        rate = args.faults if args.faults is not None else 0.0
        fault_plan = FaultPlan(
            seed=args.fault_seed, data_flip_rate=rate,
            tag_flip_rate=rate, directory_flip_rate=rate,
            stall_rate=(args.fault_stalls
                        if args.fault_stalls is not None else 0.0),
            target=args.fault_target)

    if args.mode != "simulate" and (args.trace or args.stats
                                    or args.profile
                                    or telemetry_every):
        parser.error("--mode %s is analytic; --trace/--stats/"
                     "--telemetry/--profile need live simulation"
                     % args.mode)
    try:
        jobs = (args.jobs if args.jobs is not None
                else sim_engine.jobs_from_env())
        # with --server the server owns the cache: none here
        cache = sim_engine.build_run_cache(
            args.no_cache or args.server is not None, args.cache_dir,
            args.cache_max_bytes)
    except ValueError as e:
        parser.error(str(e))
    transport = None
    server_errors = ()
    if args.server is not None:
        # Remote simulation: the server owns the workers and the run
        # cache; live-observation flags need a local System.
        if args.trace or args.stats or args.profile or telemetry_every:
            parser.error("--server resolves runs remotely; --trace/"
                         "--stats/--telemetry/--profile need local "
                         "simulation")
        for flag, value in (("--jobs", args.jobs),
                            ("--cache-dir", args.cache_dir),
                            ("--cache-max-bytes", args.cache_max_bytes)):
            if value is not None:
                parser.error("%s does not apply to --server (the "
                             "server owns its workers and cache)" % flag)
        from repro.serve.client import HttpTransport, ServerError
        try:
            transport = HttpTransport(args.server, args.priority)
        except ValueError as e:     # a port that is not a number
            parser.error("--server %s: %s" % (args.server, e))
        # An unreachable or failing server ends the run with one line.
        server_errors = (OSError, ServerError)
    engine = sim_engine.RunEngine(jobs=jobs, cache=cache, mode=args.mode,
                                  transport=transport)

    if fault_plan is not None:
        from repro.faults import use_plan
        plan_ctx = use_plan(fault_plan)
    else:
        plan_ctx = contextlib.nullcontext()
    chunk_ctx = (use_chunk(args.chunk) if args.chunk is not None
                 else contextlib.nullcontext())

    start = time.time()
    try:
        with obs_session.observe(
                trace_capacity=args.trace,
                collect_manifests=args.manifest is not None,
                collect_stats=args.stats, telemetry_every=telemetry_every,
                profile=args.profile) as session:
            with sim_engine.use_engine(engine), plan_ctx, chunk_ctx:
                rows = func(**kwargs)
    except server_errors as e:
        print("%s: error: %s: %s" % (parser.prog, args.server,
                                     " ".join(str(e).split())),
              file=sys.stderr)
        return 1
    finally:
        if transport is not None:
            transport.stop()
    elapsed = time.time() - start
    profile_report = (session.profiler.report()
                      if session.profiler is not None else None)
    telemetry_summaries = [s.summary() for s in session.telemetry]

    if args.json:
        import json
        doc = {"experiment": args.experiment,
               "elapsed_s": elapsed, "rows": rows,
               "engine": engine.snapshot()}
        if profile_report is not None:
            doc["profile"] = profile_report
        if telemetry_summaries:
            doc["telemetry"] = telemetry_summaries
        print(json.dumps(doc, indent=2, default=str))
    else:
        shown = rows
        if args.experiment == "fig8":
            # the scatter is large; show the frontier + selected points
            shown = [r for r in rows if r["pareto"] or r["selected"]]
        print(render_table(shown, title="%s (%.1fs)" % (args.experiment,
                                                        elapsed)))
    if args.chart:
        from repro.experiments.plots import chart_for
        chart = chart_for(args.experiment, rows)
        if chart:
            print()
            print(chart)

    if profile_report is not None and not args.json:
        # under --json the full report rides in the JSON document
        from repro.obs.profile import render_report
        print()
        print(render_report(profile_report))
    if telemetry_summaries:
        notice("", args.json)
        notice("# telemetry: %d run(s), %d windows, %d phases "
               "(every %d events)"
               % (len(telemetry_summaries),
                  sum(t["windows"] for t in telemetry_summaries),
                  sum(len(t["phases"]) for t in telemetry_summaries),
                  telemetry_every), args.json)

    if args.stats:
        print()
        if session.last_system is not None:
            print("# stats (last simulated system)")
            print(obs_stats.dump(session.last_system.stats()))
        else:
            print("# stats: experiment ran no simulation")
    if args.trace and session.last_tracer is not None:
        print()
        print("# trace summary: %s" % session.last_tracer.summary())
        for ev in session.last_tracer.events()[-10:]:
            print("#   %s" % (ev,))
    if args.manifest is not None:
        data = {
            "schema": obs_manifest.MANIFEST_SCHEMA,
            "experiment": args.experiment,
            "created_unix": time.time(),
            "elapsed_s": elapsed,
            "git_sha": obs_manifest.git_sha(),
            "argv": list(argv) if argv is not None else sys.argv[1:],
            "engine": engine.snapshot(),
            "runs": session.runs,
        }
        if profile_report is not None:
            data["profile"] = profile_report
        if telemetry_summaries:
            data["telemetry"] = telemetry_summaries
        path = obs_manifest.write_manifest(
            data, args.manifest, "%s-manifest" % args.experiment)
        # keep stdout machine-parseable under --json (the notice would
        # otherwise trail the JSON document in a shell redirect)
        notice("", args.json)
        notice("manifest: %s (%d runs)" % (path, len(session.runs)),
               args.json)
        for name, text in _export_files(args.experiment, session,
                                        profile_report, engine):
            import os
            fpath = os.path.join(os.path.expanduser(args.manifest),
                                 name)
            with open(fpath, "w", encoding="utf-8") as f:
                f.write(text)
            notice("export: %s" % fpath, args.json)
    return 0


def _export_files(experiment, session, profile_report, engine):
    """Telemetry/profile export artifacts to drop next to the manifest
    envelope: ``(filename, text)`` pairs -- a Perfetto-compatible
    chrome trace whenever telemetry or profiling ran, plus JSONL and
    Prometheus snapshots of the telemetry series."""
    import json as _json

    out = []
    if session.telemetry or profile_report is not None:
        from repro.obs.telemetry import export_chrome_trace
        trace = export_chrome_trace(session.telemetry, profile_report,
                                    engine.spans())
        out.append(("%s-perfetto.json" % experiment,
                    _json.dumps(trace) + "\n"))
    if session.telemetry:
        from repro.obs.telemetry import export_jsonl, export_prometheus
        out.append(("%s-telemetry.jsonl" % experiment,
                    export_jsonl(session.telemetry)))
        out.append(("%s-telemetry.prom" % experiment,
                    export_prometheus(session.telemetry)))
    return out


if __name__ == "__main__":
    sys.exit(main())
