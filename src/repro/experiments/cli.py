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
import sys
import time

from repro.experiments import EXPERIMENTS
from repro.experiments.common import notice, render_table
from repro.obs import manifest as obs_manifest
from repro.obs import session as obs_session
from repro.obs.telemetry import interval_from_env
from repro.sim import engine as sim_engine
from repro.sim.driver import DEFAULT_CHUNK, use_chunk
from repro.sim.sampling import PRESETS, parse_plan


def _sampling_arg(spec):
    """argparse type for --sampling: preset name or warmup:measure."""
    try:
        return parse_plan(spec)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


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
    parser.add_argument("--scale", type=int, default=64,
                        help="capacity/footprint scale divisor "
                             "(default 64)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--chart", action="store_true",
                        help="render an ASCII chart after the table "
                             "(where the experiment has one)")
    parser.add_argument("--json", action="store_true",
                        help="emit {experiment, elapsed_s, rows} as "
                             "JSON instead of a table")
    parser.add_argument("--stats", action="store_true",
                        help="dump the full stats registry tree of the "
                             "last simulated system")
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
                             "(default: $REPRO_TELEMETRY or off)")
    parser.add_argument("--profile", action="store_true",
                        help="hierarchical wall-clock self-profile of "
                             "the simulator (drive loop, vault/NUCA, "
                             "coherence, directory, NoC, memory, ECC "
                             "regions)")
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
                             "(default: all)")
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
                        help="resolve every grid point through a "
                             "repro.serve job server instead of a "
                             "local engine (e.g. "
                             "http://127.0.0.1:8421)")
    parser.add_argument("--priority", default="batch",
                        choices=("interactive", "batch"),
                        help="request class when submitting through "
                             "--server (default batch)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the run cache (every point "
                             "simulates)")
    parser.add_argument("--chunk", type=int, default=None, metavar="N",
                        help="core-interleave grain in events "
                             "(default: $REPRO_CHUNK or %d)"
                             % DEFAULT_CHUNK)
    args = parser.parse_args(argv)
    if args.trace < 0:
        parser.error("--trace must be positive")
    if args.telemetry is not None and args.telemetry < 0:
        parser.error("--telemetry must be >= 0 (0 = off)")
    telemetry_every = (args.telemetry if args.telemetry is not None
                       else interval_from_env())
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.chunk is not None and args.chunk < 1:
        parser.error("--chunk must be >= 1")
    for flag, value in (("--faults", args.faults),
                        ("--fault-stalls", args.fault_stalls)):
        if value is not None and not 0.0 <= value <= 1.0:
            parser.error("%s must be a rate in [0, 1]" % flag)

    func = EXPERIMENTS[args.experiment]
    kwargs = {}
    no_sim = ("fig7", "fig8", "table1", "validate_tech")
    if args.experiment == "characterize":
        kwargs = {"scale": args.scale}
    elif args.experiment not in no_sim:
        kwargs = {"scale": args.scale, "seed": args.seed}
        if args.sampling is not None:
            kwargs["plan"] = args.sampling

    # Fault flags: 'resilience' takes them as explicit sweep kwargs;
    # every other simulating experiment gets an ambient FaultPlan that
    # RunRequest.point picks up (see repro.faults.use_plan).
    fault_plan = None
    any_fault_flag = (args.faults is not None
                      or args.fault_stalls is not None)
    if args.experiment == "resilience":
        kwargs["fault_seed"] = args.fault_seed
        if args.fault_target is not None:
            kwargs["target"] = args.fault_target
        if args.faults is not None:
            kwargs["rates"] = (0.0, args.faults)
        if args.fault_stalls is not None:
            parser.error("--fault-stalls does not apply to "
                         "'resilience' (it sweeps bit-flip rates)")
    elif any_fault_flag:
        if args.experiment in no_sim or args.experiment == "characterize":
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

    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    else:
        cache_dir = sim_engine.resolve_cache_dir(
            default=sim_engine.DEFAULT_CACHE_DIR)
    if args.mode != "simulate" and (args.trace or args.stats
                                    or args.profile
                                    or telemetry_every):
        parser.error("--mode %s is analytic; --trace/--stats/"
                     "--telemetry/--profile need live simulation"
                     % args.mode)
    if args.cache_max_bytes is not None:
        try:
            cache_max_bytes = sim_engine.parse_size_bytes(
                args.cache_max_bytes)
        except ValueError as e:
            parser.error(str(e))
    else:
        cache_max_bytes = sim_engine.cache_max_bytes_from_env()
    if args.server is not None:
        # Remote resolution: the server owns the engine (and its
        # cache/jobs/mode); live-observation flags need a local System.
        if args.trace or args.stats or args.profile or telemetry_every:
            parser.error("--server resolves runs remotely; --trace/"
                         "--stats/--telemetry/--profile need local "
                         "simulation")
        from repro.serve.client import ClientEngine, ServerClient
        engine = ClientEngine(ServerClient(args.server),
                              priority=args.priority)
    else:
        engine = sim_engine.RunEngine(
            jobs=args.jobs,
            cache=(sim_engine.RunCache(cache_dir,
                                       max_bytes=cache_max_bytes)
                   if cache_dir else None),
            mode=args.mode)

    if fault_plan is not None:
        from repro.faults import use_plan
        plan_ctx = use_plan(fault_plan)
    else:
        plan_ctx = contextlib.nullcontext()
    chunk_ctx = (use_chunk(args.chunk) if args.chunk is not None
                 else contextlib.nullcontext())

    start = time.time()
    with obs_session.observe(trace_capacity=args.trace,
                             collect_manifests=args.manifest is not None,
                             collect_stats=args.stats,
                             telemetry_every=telemetry_every,
                             profile=args.profile) as session:
        with sim_engine.use_engine(engine), plan_ctx, chunk_ctx:
            if session.profiler is not None:
                with session.profiler.region("experiment"):
                    rows = func(**kwargs)
            else:
                rows = func(**kwargs)
        if session.profiler is not None:
            session.profiler.stop()
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
            print("# stats registry (last simulated system)")
            print(session.last_system.stats.dump())
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
                                    engine.recorder.spans())
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
