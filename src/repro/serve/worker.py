"""Socket simulation worker.

``python -m repro.serve.worker --connect HOST:PORT`` runs a long-lived
socket worker: it dials the :class:`~repro.serve.transport
.SocketWorkerTransport` listener, announces itself with a ``hello``
frame, then serves pickled jobs one at a time -- every job executes
through :func:`repro.sim.engine._execute_to_summary`, the same
dispatch seam as the serial path, so results are bit-identical no
matter where the worker runs.  If the connection drops the worker
reconnects with exponential backoff (``--no-reconnect`` to exit
instead, which is how tests simulate worker death).

The worker is synchronous by design: it *is* the blocking executor,
there is no event loop here to starve (silolint SL009 only polices
``async def`` bodies).
"""

import argparse
import os
import socket
import sys
import time
import traceback

from repro.obs.profile import clock
from repro.serve.proto import ProtocolError, recv_frame, send_frame
from repro.sim.engine import _execute_to_summary


def default_worker_name():
    """Default worker identity: ``hostname/pid:N``."""
    return "%s/pid:%d" % (socket.gethostname(), os.getpid())


def serve_connection(sock, name, max_jobs=0, log=None):
    """Serve one parent connection until EOF/shutdown.

    Returns the number of jobs executed.  ``max_jobs`` > 0 exits after
    that many jobs (test hook for simulating a worker dying
    mid-batch).
    """
    send_frame(sock, {"type": "hello", "worker": name,
                      "pid": os.getpid()})
    executed = 0
    while True:
        frame = recv_frame(sock)
        if frame is None:
            return executed
        kind = frame.get("type") if isinstance(frame, dict) else None
        if kind == "ping":
            send_frame(sock, {"type": "pong"})
        elif kind == "shutdown":
            return executed
        elif kind == "job":
            seq = frame.get("seq")
            try:
                t0 = clock()
                summary = _execute_to_summary(frame["request"],
                                              frame["key"])
                send_frame(sock, {"type": "result", "seq": seq,
                                  "summary": summary,
                                  "exec_s": clock() - t0})
            except Exception:
                send_frame(sock, {"type": "error", "seq": seq,
                                  "error": traceback.format_exc()})
            executed += 1
            if log is not None:
                log("job %s done (%d total)"
                    % (str(frame.get("key", ""))[:12], executed))
            if max_jobs and executed >= max_jobs:
                return executed
        else:
            raise ProtocolError("unexpected frame %r" % (kind,))


def run_socket_worker(host, port, name=None, reconnect=True,
                      max_jobs=0, backoff_s=0.2, log=None):
    """Dial the transport listener and serve jobs until told to stop."""
    name = name or default_worker_name()
    delay = backoff_s
    total = 0
    while True:
        try:
            with socket.create_connection((host, port),
                                          timeout=10.0) as sock:
                sock.settimeout(None)
                delay = backoff_s
                total += serve_connection(sock, name,
                                          max_jobs=max_jobs, log=log)
        except (OSError, ProtocolError) as e:
            if log is not None:
                log("connection lost: %s" % e)
        if not reconnect or (max_jobs and total >= max_jobs):
            return total
        time.sleep(delay)
        delay = min(delay * 2, 5.0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv=None):
    """CLI entry point: ``python -m repro.serve.worker``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.worker",
        description="Long-lived socket simulation worker.")
    parser.add_argument("--connect", metavar="HOST:PORT", required=True,
                        help="dial a SocketWorkerTransport listener")
    parser.add_argument("--name", default=None,
                        help="worker name (default host/pid)")
    parser.add_argument("--no-reconnect", action="store_true",
                        help="exit when the connection drops instead "
                             "of redialing")
    parser.add_argument("--max-jobs", type=int, default=0,
                        help="exit after N jobs (0 = forever; test "
                             "hook for worker-death scenarios)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    log = None if args.quiet else (
        lambda msg: print("[worker] %s" % msg, file=sys.stderr,
                          flush=True))
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        parser.error("--connect needs HOST:PORT")
    run_socket_worker(host, int(port), name=args.name,
                      reconnect=not args.no_reconnect,
                      max_jobs=args.max_jobs, log=log)
    return 0


if __name__ == "__main__":
    sys.exit(main())
