"""Socket-worker executor transport and the ``--transport`` spec.

A transport is *where simulations run*; :class:`repro.sim.engine
.RunEngine` only decides *what* runs (its ``transport`` attribute
documents the contract: ``submit(request, key)`` returns a
:class:`concurrent.futures.Future` of ``(summary, meta)`` with ``meta =
{"worker": str, "exec_s": float}``).  Three exist: the engine's own
:class:`~repro.sim.engine.LocalPoolTransport`,
:class:`SocketWorkerTransport` here -- long-lived worker processes
(``python -m repro.serve.worker --connect``), potentially on other
hosts, speaking length-prefixed pickled frames over TCP with idle
heartbeats and work-stealing requeue when a worker dies mid-job --
and :class:`repro.serve.client.HttpTransport`, which posts each point
to a job server.  Futures are the bridge to both worlds: the
synchronous engine blocks on ``.result()``, the asyncio job server
wraps them with ``asyncio.wrap_future``.

Determinism note: a transport only moves a pickled
:class:`~repro.sim.engine.RunRequest` to another process and a
:class:`~repro.sim.engine.RunSummary` back; the simulation itself is
always :func:`repro.sim.engine._execute_to_summary`, so results are
bit-identical to the serial path no matter which transport carried
them (the dedup/cache key already covers the code fingerprint).
"""

import socket
import threading
import time
from collections import deque
from concurrent.futures import Future

from repro.serve.proto import ProtocolError, recv_frame, send_frame
from repro.sim.engine import LocalPoolTransport


class TransportError(Exception):
    """A job could not be executed by the transport (worker died past
    the retry budget, remote raised, transport stopped)."""


class _Job:
    __slots__ = ("request", "key", "future", "attempts")

    def __init__(self, request, key):
        self.request = request
        self.key = key
        self.future = Future()
        self.attempts = 0


class SocketWorkerTransport:
    """Fan out to long-lived worker processes over TCP.

    The transport listens; workers dial in (``python -m
    repro.serve.worker --connect HOST:PORT``), announce themselves with
    a ``hello`` frame, then serve jobs one at a time.  Each connected
    worker gets a dispatcher thread that pulls from a shared FIFO,
    ships the job as one pickled frame and blocks for the ``result``
    frame.  Failure model:

    * **worker death mid-job** (EOF, reset, garbage frame): the job is
      requeued at the *front* of the queue -- work stealing, any other
      live worker picks it up -- up to ``max_attempts`` tries, after
      which its future fails with :class:`TransportError`;
    * **remote exception**: an ``error`` frame is deterministic (the
      request itself raised), so it is *not* retried -- the future
      fails immediately with the remote traceback;
    * **idle connections** are pinged every ``heartbeat_s``; a missed
      ``pong`` drops the connection (and its thread) so a hung worker
      cannot silently absorb jobs later.
    """

    def __init__(self, host="127.0.0.1", port=0, max_attempts=3,
                 heartbeat_s=5.0):
        self.host = host
        self.port = port
        self.max_attempts = max(1, int(max_attempts))
        self.heartbeat_s = heartbeat_s
        self._listener = None
        self._accept_thread = None
        self._running = False
        self._lock = threading.Lock()
        self._have_work = threading.Condition(self._lock)
        self._queue = deque()
        self._workers = {}     # name -> socket
        self._threads = []
        self.requeues = 0
        self.worker_deaths = 0
        self.completed = 0

    # -- lifecycle -------------------------------------------------------

    def start(self):
        if self._running:
            return
        self._listener = socket.create_server(
            (self.host, self.port), reuse_port=False)
        self._listener.settimeout(0.2)
        self.port = self._listener.getsockname()[1]
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="silo-serve-accept",
            daemon=True)
        self._accept_thread.start()

    def stop(self):
        if not self._running:
            return
        self._running = False
        with self._have_work:
            self._have_work.notify_all()
        if self._listener is not None:
            self._listener.close()
        with self._lock:
            conns = list(self._workers.values())
        for sock in conns:
            try:
                send_frame(sock, {"type": "shutdown"})
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for t in self._threads:
            t.join(timeout=2.0)
        with self._lock:
            pending = list(self._queue)
            self._queue.clear()
        for job in pending:
            if not job.future.done():
                job.future.set_exception(
                    TransportError("transport stopped"))

    # -- submission ------------------------------------------------------

    def submit(self, request, key):
        if not self._running:
            raise TransportError("transport not started")
        job = _Job(request, key)
        with self._have_work:
            self._queue.append(job)
            self._have_work.notify()
        return job.future

    def capacity(self):
        with self._lock:
            return max(1, len(self._workers))

    def describe(self):
        with self._lock:
            n = len(self._workers)
        return "socket:%s:%d workers=%d" % (self.host, self.port, n)

    @property
    def address(self):
        return self.host, self.port

    def wait_for_workers(self, n, timeout=10.0):
        """Block until ``n`` workers are connected (tests, CI smoke)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if len(self._workers) >= n:
                    return True
            time.sleep(0.02)
        return False

    # -- internals -------------------------------------------------------

    def _accept_loop(self):
        while self._running:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            sock.settimeout(30.0)
            try:
                hello = recv_frame(sock)
            except (ProtocolError, OSError):
                sock.close()
                continue
            if not isinstance(hello, dict) \
                    or hello.get("type") != "hello":
                sock.close()
                continue
            name = str(hello.get("worker", "worker"))
            with self._lock:
                base, n = name, 1
                while name in self._workers:
                    n += 1
                    name = "%s#%d" % (base, n)
                self._workers[name] = sock
            thread = threading.Thread(
                target=self._worker_loop, args=(name, sock),
                name="silo-serve-%s" % name, daemon=True)
            self._threads.append(thread)
            thread.start()

    def _take_job(self, timeout):
        with self._have_work:
            if not self._queue and self._running:
                self._have_work.wait(timeout)
            if self._queue:
                return self._queue.popleft()
            return None

    def _requeue(self, job, reason):
        """Work-stealing: push a failed dispatch back for any other
        live worker, front of the queue so it does not starve."""
        job.attempts += 1
        if job.attempts >= self.max_attempts:
            if not job.future.done():
                job.future.set_exception(TransportError(
                    "job %s failed after %d attempts: %s"
                    % (job.key[:12], job.attempts, reason)))
            return
        self.requeues += 1
        with self._have_work:
            self._queue.appendleft(job)
            self._have_work.notify()

    def _worker_loop(self, name, sock):
        seq = 0
        try:
            while self._running:
                job = self._take_job(self.heartbeat_s)
                if job is None:
                    if not self._running:
                        return
                    # Idle: heartbeat so a dead peer is noticed before
                    # it is handed a job.
                    try:
                        send_frame(sock, {"type": "ping"})
                        reply = recv_frame(sock)
                    except (ProtocolError, OSError):
                        return
                    if not isinstance(reply, dict) \
                            or reply.get("type") != "pong":
                        return
                    continue
                if job.future.done():
                    continue
                seq += 1
                try:
                    send_frame(sock, {
                        "type": "job", "seq": seq,
                        "request": job.request, "key": job.key})
                    reply = recv_frame(sock)
                except (ProtocolError, OSError) as e:
                    self._requeue(job, "worker %s died (%s)"
                                  % (name, e))
                    return
                if reply is None:
                    self._requeue(job, "worker %s disconnected" % name)
                    return
                kind = reply.get("type") if isinstance(reply, dict) \
                    else None
                if kind == "result" and reply.get("seq") == seq:
                    self.completed += 1
                    job.future.set_result((
                        reply["summary"],
                        {"worker": name,
                         "exec_s": float(reply.get("exec_s", 0.0))}))
                elif kind == "error":
                    # Remote exception: deterministic, do not retry.
                    job.future.set_exception(TransportError(
                        "worker %s: %s" % (name, reply.get("error"))))
                else:
                    self._requeue(job, "worker %s sent %r" % (name,
                                                              kind))
                    return
        finally:
            self.worker_deaths += self._running
            with self._lock:
                if self._workers.get(name) is sock:
                    del self._workers[name]
            try:
                sock.close()
            except OSError:
                pass


def transport_from_spec(spec):
    """Build a transport from a CLI spec string.

    Forms: ``local[:N]`` (process pool of N), ``socket[:HOST][:PORT]``
    (listen for workers; port 0 = ephemeral).  Returns None for
    ``""``/``"none"``.
    """
    if not spec or spec == "none":
        return None
    kind, _, rest = spec.partition(":")
    if kind == "local":
        return LocalPoolTransport(jobs=int(rest) if rest else 2)
    if kind == "socket":
        host, _, port = rest.partition(":")
        return SocketWorkerTransport(host=host or "127.0.0.1",
                                     port=int(port) if port else 0)
    raise ValueError("unknown transport spec %r" % spec)
