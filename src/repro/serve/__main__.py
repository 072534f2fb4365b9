"""``python -m repro.serve``: start the simulation job server.

Examples::

    # serve with the engine in-process, on 8421
    python -m repro.serve

    # serve with a long-lived local process pool of 2 workers
    python -m repro.serve --transport local:2
"""

import argparse
import asyncio
import sys

from repro.serve.server import DEFAULT_PORT, JobServer, run_server
from repro.sim import engine as sim_engine


def transport_from_spec(spec):
    """``--transport`` type: ``""``/``none`` (the engine runs points
    in-process) -> None; ``local`` or ``local:N`` with N >= 1 -> a
    :class:`~repro.sim.engine.LocalPoolTransport` of 2 or N workers.
    Anything else is a usage error."""
    if spec in ("", "none"):
        return None
    kind, sep, width = spec.partition(":")
    if kind == "local" and not sep:
        return sim_engine.LocalPoolTransport(jobs=2)
    if kind == "local" and width.isdigit() and int(width) >= 1:
        return sim_engine.LocalPoolTransport(jobs=int(width))
    raise argparse.ArgumentTypeError(
        "expected none, local or local:N with N >= 1, got %r" % spec)


def at_least_one(text):
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "expected an integer >= 1, got %r" % text)
    return value


def build_engine(args):
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    else:
        cache_dir = sim_engine.resolve_cache_dir(
            default=sim_engine.DEFAULT_CACHE_DIR)
    max_bytes = (sim_engine.parse_size_bytes(args.cache_max_bytes)
                 if args.cache_max_bytes
                 else sim_engine.cache_max_bytes_from_env())
    cache = (sim_engine.RunCache(cache_dir, max_bytes=max_bytes)
             if cache_dir else None)
    return sim_engine.RunEngine(jobs=1, cache=cache, mode=args.mode,
                                transport=args.transport)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve RunRequests over HTTP with in-flight "
                    "dedup, priorities and backpressure.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--transport", default="",
                        type=transport_from_spec, metavar="SPEC",
                        help="executor transport: none (simulate "
                             "in-process; the default), local (a "
                             "2-worker process pool) or local:N")
    parser.add_argument("--mode",
                        choices=sorted(sim_engine.ENGINE_MODES),
                        default="simulate")
    parser.add_argument("--cache-dir", default=None, metavar="DIR")
    parser.add_argument("--cache-max-bytes", default=None,
                        metavar="BYTES",
                        help="LRU cap on the run cache (k/m/g "
                             "suffixes; default: "
                             "$REPRO_CACHE_MAX_BYTES)")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--max-queue-depth", type=at_least_one,
                        default=256)
    parser.add_argument("--retry-after", type=float, default=1.0,
                        metavar="S")
    parser.add_argument("--max-batch", type=int, default=64)
    args = parser.parse_args(argv)

    engine = build_engine(args)
    transport = engine.transport
    if transport is not None:
        transport.start()
    server = JobServer(engine, host=args.host, port=args.port,
                       max_queue_depth=args.max_queue_depth,
                       retry_after_s=args.retry_after,
                       max_batch=args.max_batch)

    def ready(srv):
        line = "READY %s transport=%s" % (
            srv.url, transport.describe() if transport is not None
            else "local")
        print(line, flush=True)

    try:
        asyncio.run(run_server(server, ready=ready))
    except KeyboardInterrupt:
        pass
    finally:
        if transport is not None:
            transport.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
