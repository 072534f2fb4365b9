"""Start the job server with the benchmark's tracing wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS_OUT [repro.serve
arguments...]``.  Installs the wrappers, runs
``repro.serve.__main__.main`` until interrupted, then writes every span
to ``SPANS_OUT`` as JSON.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from perfbench import spans  # noqa: E402


def install(tracer):
    """Wrap the server's entry points at the names its code looks up."""
    from repro.analytic import estimator
    from repro.serve import proto
    from repro.sim import engine as sim_engine

    # Each HTTP request read starts a request identity that the parse,
    # key and render calls of the same connection task inherit.
    tracer.wrap(proto, "read_request", "serve.proto.read", new_rid=True,
                sticky=True)
    tracer.wrap(proto, "parse_run_payload", "serve.proto.parse",
                note=lambda _a, _k, r: {} if r is None
                else {"req": id(r[0])})
    tracer.wrap(proto, "render_response", "serve.proto.render",
                note=lambda _a, _k, r: {"bytes": len(r or b"")})
    tracer.wrap(sim_engine.RunRequest, "key", "sim.engine.key")
    tracer.wrap(sim_engine.RunEngine, "run", "sim.engine.run",
                note=lambda a, _k, _r: {"reqs": [id(q) for q in a[1]]})
    tracer.wrap(sim_engine.RunCache, "get", "sim.engine.cache_get")
    tracer.wrap(sim_engine.RunCache, "put", "sim.engine.cache_put")
    tracer.wrap(estimator, "estimate_to_summary", "analytic.estimate")


def main(argv):
    spans_out, serve_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    install(tracer)
    from repro.serve.__main__ import main as serve_main
    try:
        return serve_main(serve_args)
    finally:
        with open(spans_out, "w") as f:
            json.dump(tracer.dump(), f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
