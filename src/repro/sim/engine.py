"""Parallel, memoized run engine for experiment grids.

Every figure in the reproduction is a grid of *independent,
deterministic* simulation points: a system configuration, a workload
placement, a sampling plan and a seed fully determine the result.  The
engine exploits exactly that:

* a :class:`RunRequest` is the canonical, hashable description of one
  point (it also covers heterogeneous colocation placements, so the
  SPEC mixes and the isolation study key the same way);
* :class:`RunEngine` fans a batch of requests out through an executor
  transport -- a local process pool (``--jobs N`` / ``$REPRO_JOBS``;
  ``jobs=1`` is a plain in-process loop) or a job server over HTTP --
  deduplicating identical points first;
* a :class:`RunCache` memoizes finished points on disk, keyed by a
  content hash of the request *and* a fingerprint of the simulator's
  own source (git sha + per-file digests), so results survive across
  figures and sessions but never across code changes;
* each point resolves to a :class:`~repro.sim.summary.RunSummary`,
  the one result model (:mod:`repro.sim.summary`): a simulated point's
  is the snapshot ``run_system`` took, detached from the live System
  by :func:`summarize`, so every metric re-evaluates from it without
  re-simulating and caches, pools and travels as plain data.

Experiment modules declare their grids and call :func:`run_grid`; the
CLI installs a configured engine with :func:`use_engine`.  When no
engine is installed, a default one is built from the environment
(``$REPRO_JOBS``, ``$REPRO_CACHE_DIR``) -- serial and cache-less unless
those are set, so library calls and the test suite stay hermetic.

Observation sessions interact with the engine as follows: a session
that collects stats or traces needs live ``System`` objects, so the
engine bypasses the cache and the process pool and simulates in-process
(results are bit-identical either way; sessions stay inert).  A session
that only collects manifests works in every mode -- points executed
in-process are recorded by ``run_system`` as before, while cached and
worker-executed points are recorded from their summaries.
"""

import functools
import hashlib
import json
import os
import pickle
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cores.perf_model import CoreParams
from repro.faults.plan import FaultPlan, current_plan
from repro.fields import check_fields, field_names, plain
from repro.obs import manifest as _manifest
from repro.obs import session as _obs_session
from repro.obs.profile import clock
from repro.obs.recorder import FlightRecorder
from repro.sim.config import HierarchyConfig
from repro.sim.driver import DEFAULT_CHUNK, default_chunk, run_system
from repro.sim.sampling import SamplingPlan
from repro.sim.summary import ENGINE_SCHEMA, RunSummary
from repro.workloads.base import WorkloadSpec

#: Execution modes a RunRequest may carry ("auto" is an engine-level
#: triage policy, never a request mode: triage resolves each point to
#: one of these two before keying).
REQUEST_MODES = ("simulate", "estimate")

#: Engine-level execution policies (--mode): "simulate" runs every
#: point through the trace-driven simulator, "estimate" resolves
#: estimator-capable points analytically, "auto" estimates whole grids
#: and falls back to simulation outside the validated error envelope
#: or near a shared-vs-SILO decision boundary.
ENGINE_MODES = ("simulate", "estimate", "auto")

#: Default on-disk cache location (the CLI's default; library use only
#: caches when $REPRO_CACHE_DIR is set -- see resolve_cache_dir).
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "silo-repro")


# ---------------------------------------------------------------------------
# request keying
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunRequest:
    """Canonical description of one simulation point.

    ``placements`` assigns workloads to cores: a single entry covering
    all (or a subset of) cores for homogeneous runs, several disjoint
    entries for colocation.  Cores outside every placement exist but
    are not driven (their params default to :class:`CoreParams`),
    matching the isolation study's idle cores.
    """

    config: HierarchyConfig
    placements: Tuple[Tuple[WorkloadSpec, Tuple[int, ...]], ...]
    plan: SamplingPlan
    seed: int
    colocated: bool = False
    track_sharing: bool = False
    chunk: int = DEFAULT_CHUNK
    #: Optional fault plan (repro.faults); None means fault-free and
    #: keys differently from any active plan.
    faults: Optional[FaultPlan] = None
    #: How the point is resolved: "simulate" (trace-driven simulator)
    #: or "estimate" (repro.analytic.estimator).  Part of the key, so
    #: analytic approximations can never alias simulated results.
    mode: str = "simulate"

    #: A chunk below 1 would never advance the drive loop, and the
    #: workload generator's numpy RNG refuses a negative seed: both are
    #: refused where a posted request is rebuilt (see repro.fields).
    LIMITS = {"seed": (0, None), "chunk": (1, None),
              "mode": REQUEST_MODES}

    def __post_init__(self):
        check_fields(self)
        n = self.config.num_cores
        # A request drives at least one core, and one that is not
        # colocated has exactly one placement (the simulator and the
        # estimator unpack one).
        if not self.placements:
            raise ValueError("a run request needs at least one placement")
        if not self.colocated and len(self.placements) > 1:
            raise ValueError("%d placements on a request that is not "
                             "colocated" % len(self.placements))
        # Core ids index the system's cores, and each core runs one
        # trace; fault targets index the injector's vaults/banks, one
        # per core.  Out of range or named twice, a run would fail
        # midway, drive a core with two traces or silently inject
        # nothing.
        seen = set()
        for _spec, core_ids in self.placements:
            if not core_ids:
                raise ValueError("a placement names no core")
            for core in core_ids:
                if not 0 <= core < n:
                    raise ValueError("placement core id %r outside a "
                                     "%d-core system" % (core, n))
                if core in seen:
                    raise ValueError("placement core id %r named twice"
                                     % (core,))
                seen.add(core)
        faults = self.faults
        if faults is not None:
            vaults = [ev.vault for ev in faults.vault_events]
            if faults.target is not None:
                vaults.append(faults.target)
            for vault in vaults:
                if not 0 <= vault < n:
                    raise ValueError("fault plan names vault/bank %r; a "
                                     "%d-core system has 0..%d"
                                     % (vault, n, n - 1))

    @classmethod
    def point(cls, config, spec, plan, seed, core_ids=None,
              track_sharing=False, chunk=None, faults=None,
              mode="simulate"):
        """A homogeneous point: ``spec`` on all cores (or ``core_ids``),
        exactly like :func:`repro.sim.driver.simulate`.  ``faults``
        defaults to the ambient plan installed by
        :func:`repro.faults.use_plan` (None when none is installed);
        ``chunk`` defaults to the ambient setting
        (:func:`repro.sim.driver.use_chunk`)."""
        if core_ids is None:
            core_ids = tuple(range(config.num_cores))
        if faults is None:
            faults = current_plan()
        if chunk is None:
            chunk = default_chunk()
        return cls(config=config, placements=((spec, tuple(core_ids)),),
                   plan=plan, seed=seed, colocated=False,
                   track_sharing=track_sharing, chunk=chunk,
                   faults=faults, mode=mode)

    @classmethod
    def colocation(cls, config, assignments, plan, seed,
                   chunk=None, faults=None, mode="simulate"):
        """A heterogeneous point: ``assignments`` is a list of
        ``(spec, core_ids)`` pairs with disjoint core sets, exactly like
        :func:`repro.workloads.colocation.generate_colocation_traces`."""
        placements = tuple((spec, tuple(ids))
                           for spec, ids in assignments)
        if faults is None:
            faults = current_plan()
        if chunk is None:
            chunk = default_chunk()
        return cls(config=config, placements=placements, plan=plan,
                   seed=seed, colocated=True, track_sharing=False,
                   chunk=chunk, faults=faults, mode=mode)

    def canonical(self):
        """JSON-native dict that fully determines the simulation: the
        very dict the ``dataclasses.asdict`` construction gave, built
        without its per-value deepcopy (see :func:`repro.fields.plain`)."""
        return {
            "config": plain(self.config),
            "placements": [
                {"spec": plain(spec), "core_ids": list(ids)}
                for spec, ids in self.placements],
            "plan": plain(self.plan),
            "seed": self.seed,
            "colocated": self.colocated,
            "track_sharing": self.track_sharing,
            "chunk": self.chunk,
            "faults": (None if self.faults is None
                       else self.faults.canonical()),
            "mode": self.mode,
        }

    @classmethod
    def from_canonical(cls, data):
        """Rebuild a request from its :meth:`canonical` dict.

        This is the wire format of the job server (``repro.serve``):
        a request travels as JSON, is reconstructed here, and must key
        identically to the original --
        ``RunRequest.from_canonical(r.canonical()).key(f) == r.key(f)``
        for every fingerprint ``f`` (the round-trip property the serve
        tests pin).  Validation is the dataclasses' own
        ``__post_init__`` checks (each field's annotation, by
        :mod:`repro.fields`), plus a refusal of any key
        :meth:`canonical` does not write, at the top or in a placement
        (a misspelled field would otherwise be dropped and the request
        keyed without it), and of a request that costs more than
        :func:`request_budget` in any measure (it would run out of
        memory or time inside the job);
        malformed payloads raise ``ValueError``/``TypeError``/
        ``KeyError`` for the server to turn into a 400.
        """
        from repro.workloads.base import CodeSpec, RegionSpec

        unknown = data.keys() - cls.__dataclass_fields__.keys()
        if unknown:
            raise ValueError("unknown run request field(s): %s"
                             % ", ".join(sorted(map(str, unknown))))

        def spec_from(d):
            return WorkloadSpec(**dict(
                d, code=CodeSpec(**d["code"]),
                regions=tuple(RegionSpec(**r) for r in d["regions"]),
                core=CoreParams(**d["core"])))

        def placement_from(p):
            extra = set(p) - {"spec", "core_ids"}
            if extra:
                raise ValueError("unknown placement field(s): %s"
                                 % ", ".join(sorted(map(str, extra))))
            return spec_from(p["spec"]), tuple(p["core_ids"])

        faults = None
        if data.get("faults") is not None:
            faults = FaultPlan(**data["faults"])
        request = cls(
            config=HierarchyConfig(**data["config"]),
            placements=tuple(placement_from(p)
                             for p in data["placements"]),
            plan=SamplingPlan(**data["plan"]),
            seed=data["seed"],
            colocated=data.get("colocated", False),
            track_sharing=data.get("track_sharing", False),
            chunk=data.get("chunk", DEFAULT_CHUNK),
            faults=faults,
            mode=data.get("mode", "simulate"))
        budget = request_budget()
        for measure, cost in request.cost().items():
            if cost > budget[measure]:
                raise ValueError(
                    "a run request of %d %s; the largest legitimate "
                    "point has %d" % (cost, measure, budget[measure]))
        return request

    def cost(self):
        """What resolving this request builds, in three measures: its
        machine's cache lines/pages (see
        :meth:`HierarchyConfig.cache_lines`), its trace events (every
        driven core's warm-up and measured events) and its workload
        blocks (the address space the generator lays out for each
        placement)."""
        from repro.workloads.generator import _build_layout
        scale = self.config.scale
        return {
            "cache lines/pages": self.config.cache_lines(),
            "trace events": self.plan.total_events * sum(
                len(ids) for _spec, ids in self.placements),
            "workload blocks": sum(
                _build_layout(spec, len(ids), scale).total_blocks
                for spec, ids in self.placements),
        }

    def key(self, fingerprint=""):
        """Content-address of this point under a code fingerprint."""
        blob = json.dumps({"schema": ENGINE_SCHEMA, "code": fingerprint,
                           "request": self.canonical()},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @staticmethod
    def is_key(text):
        """Whether ``text`` has the shape :meth:`key` produces (64
        lowercase hex digits), so it is safe to use as a cache path."""
        return re.fullmatch("[0-9a-f]{64}", text) is not None


@functools.lru_cache(maxsize=1)
def request_budget():
    """The largest legitimate point's :meth:`RunRequest.cost`: each
    measure's maximum over every system builder on the Table II
    machine (16 cores) at scale 1, the sampling presets, and every
    workload an experiment runs (scale-out, enterprise and SPEC) on
    all 16 cores.  A posted request costing more in any measure is
    refused (:meth:`RunRequest.from_canonical`); local runs are not
    bounded."""
    from repro.core.systems import SYSTEM_LABELS, system_config
    from repro.params import NUM_CORES
    from repro.sim.sampling import PRESETS
    from repro.workloads import (ENTERPRISE_WORKLOADS, SCALEOUT_WORKLOADS,
                                 SPEC_APPS)

    plan = max(PRESETS.values(), key=lambda p: p.total_events)
    costs = [RunRequest.point(system_config(name, num_cores=NUM_CORES,
                                            scale=1),
                              spec, plan, 0).cost()
             for name in SYSTEM_LABELS
             for spec in (*SCALEOUT_WORKLOADS.values(),
                          *ENTERPRISE_WORKLOADS.values(),
                          *SPEC_APPS.values())]
    return {measure: max(cost[measure] for cost in costs)
            for measure in costs[0]}


def fingerprint_files():
    """Package-relative paths of every source file the code
    fingerprint covers: all ``.py`` files under the ``repro`` package,
    in deterministic order.  The walk picks up new subpackages
    automatically -- ``repro/faults`` must appear here so cached
    fault-free summaries miss cleanly when the fault model changes."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                out.append(os.path.relpath(path, root))
    return out


@functools.lru_cache(maxsize=1)
def code_fingerprint():
    """Digest of the simulator's own source: the git sha plus a sha256
    over every ``repro`` package file's contents (the
    :func:`fingerprint_files` set).  Hashing file contents (not just
    the sha) keeps dirty working trees from replaying stale cache
    entries."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256()
    h.update((_manifest.git_sha() or "no-git").encode("utf-8"))
    for rel in fingerprint_files():
        h.update(rel.encode("utf-8"))
        with open(os.path.join(root, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# run summaries
# ---------------------------------------------------------------------------


def summarize(result, request_key=""):
    """The plain, picklable :class:`RunSummary` of a live RunResult,
    stamped with ``request_key``: the same field values (the snapshot
    ``run_system`` took), without the live System and telemetry."""
    summary = RunSummary(**{name: getattr(result, name)
                            for name in field_names(RunSummary)})
    summary.request_key = request_key
    return summary


# ---------------------------------------------------------------------------
# point execution (also the process-pool worker)
# ---------------------------------------------------------------------------


def execute_request(request):
    """Simulate one point; returns the live RunResult.

    This is the single source of truth for how a RunRequest turns into
    a simulation -- the serial path, the pool workers and the
    determinism tests all go through it.
    """
    from repro.sim.system import System
    from repro.workloads.colocation import generate_colocation_traces
    from repro.workloads.generator import generate_traces

    config = request.config
    plan = request.plan
    core_params = [None] * config.num_cores
    for spec, core_ids in request.placements:
        for c in core_ids:
            core_params[c] = spec.core
    idle = CoreParams()
    core_params = [p if p is not None else idle for p in core_params]
    system = System(config, core_params)
    system.track_sharing = request.track_sharing
    if request.faults is not None and request.faults.active():
        # Inactive plans (all-zero rates, no events) attach nothing,
        # so they are bit-identical to fault-free requests.
        from repro.faults.injector import FaultInjector
        system.attach_faults(
            FaultInjector(request.faults, config.num_cores))
    if request.colocated:
        traces, _layouts = generate_colocation_traces(
            [(spec, list(ids)) for spec, ids in request.placements],
            events_per_core=plan.total_events, scale=config.scale,
            seed=request.seed)
    else:
        ((spec, core_ids),) = request.placements
        traces, layout = generate_traces(
            spec, num_cores=len(core_ids),
            events_per_core=plan.total_events, scale=config.scale,
            seed=request.seed, core_ids=list(core_ids))
        system.rw_shared_range = layout.rw_shared_range
    return run_system(system, traces, plan.warmup_events,
                      plan.measure_events, request.chunk,
                      seed=request.seed)


def _execute_to_summary(request, request_key):
    if request.mode == "estimate":
        # Single dispatch seam: anything that executes a request
        # (serial path, pool worker, determinism tests) honours the
        # request's mode.
        from repro.analytic.estimator import estimate_to_summary
        return estimate_to_summary(request, request_key)
    return summarize(execute_request(request), request_key)


def _pool_worker(payload):
    """Top-level (picklable) ProcessPoolExecutor entry point; returns
    ``(summary, meta)`` in the transport contract, ``meta`` naming the
    worker pid and its execution wall clock for the parent's flight
    recorder."""
    request, request_key = payload
    t0 = clock()
    summary = _execute_to_summary(request, request_key)
    return summary, {"worker": "pid:%d" % os.getpid(),
                     "exec_s": clock() - t0}


def _stamp_done(done_at, key, _fut):
    """``add_done_callback`` hook: stamp a future's completion on the
    *parent's* clock (worker timestamps are not comparable across
    processes; the worker only reports its execution duration)."""
    done_at[key] = clock()


class LocalPoolTransport:
    """A local ``ProcessPoolExecutor`` of ``jobs`` workers as an
    executor transport (see :attr:`RunEngine.transport`)."""

    def __init__(self, jobs=2):
        self.jobs = max(1, int(jobs))
        self._pool = None

    def start(self):
        """Bring every worker up.  Under the fork start method the pool
        forks all its workers at its first submit, and each inherits
        the sockets open at that moment: a job server's listening
        socket and its clients' connections would stay open in the
        workers until the pool stops.  One no-op round trip here forks
        them before anything else is opened."""
        if self._pool is None:
            # Imported here: loading multiprocessing costs milliseconds
            # of set-up that a run without a pool should not pay.
            from concurrent.futures import ProcessPoolExecutor
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            self._pool.submit(os.getpid).result()

    def stop(self):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def submit(self, request, key):
        if self._pool is None:
            raise RuntimeError("transport not started")
        return self._pool.submit(_pool_worker, (request, key))

    def capacity(self):
        return self.jobs

    def describe(self):
        return "local-pool:%d" % self.jobs


# ---------------------------------------------------------------------------
# on-disk cache
# ---------------------------------------------------------------------------


class RunCache:
    """Content-addressed pickle store of RunSummaries.

    Entries live at ``<dir>/<key[:2]>/<key>.pkl``; writes go through a
    temp file + ``os.replace`` so concurrent engines only ever see
    complete entries.  Unreadable or stale-schema entries read as
    misses (and are left for a future overwrite).

    ``max_bytes`` bounds the cache's on-disk footprint
    (``--cache-max-bytes`` / ``$REPRO_CACHE_MAX_BYTES``; None =
    unbounded): after every write the least-recently-used entries are
    evicted, oldest access first, until the total fits.  Access order
    is kept with an explicit ``os.utime`` touch on every hit, so LRU
    survives filesystems mounted ``noatime`` and a restart.  A capped
    cache keeps an in-memory LRU index (path -> size) that one
    directory scan seeds and that puts, hits and evictions update; it
    rescans once per ``max_bytes`` written, so entries other processes
    write still count, and on every explicit ``prune(max_bytes=...)``.
    Evictions are counted in :attr:`pruned_entries` (surfaced in
    :meth:`RunEngine.snapshot`)."""

    def __init__(self, directory, max_bytes=None):
        self.directory = os.path.abspath(os.path.expanduser(directory))
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None "
                             "for an unbounded cache)")
        self.max_bytes = max_bytes
        self.pruned_entries = 0
        #: path -> size, least recently used first; None until the
        #: first scan.  Guarded by ``_lock``: the job server reads the
        #: cache off its engine thread.
        self._index = None
        self._total = 0
        #: Bytes put since the last scan.
        self._written = 0
        self._lock = threading.Lock()

    def path_for(self, key):
        return os.path.join(self.directory, key[:2], key + ".pkl")

    def get(self, key):
        path = self.path_for(key)
        try:
            with open(path, "rb") as f:
                summary = pickle.load(f)
                size = os.fstat(f.fileno()).st_size
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            return None
        if (not isinstance(summary, RunSummary)
                or summary.schema != ENGINE_SCHEMA):
            return None
        try:
            os.utime(path)          # refresh LRU order on hit
        except OSError:
            pass
        with self._lock:
            if self._index is not None:
                self._note(path, size)
        return summary

    def put(self, key, summary):
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "wb") as f:
            pickle.dump(summary, f, protocol=pickle.HIGHEST_PROTOCOL)
            size = f.tell()
        os.replace(tmp, path)
        if self.max_bytes is not None:
            with self._lock:
                self._written += size
                if self._index is None or self._written >= self.max_bytes:
                    self._scan()
                else:
                    self._note(path, size)
                self._evict(self.max_bytes)
        return path

    def entries(self):
        """``(atime, size, path)`` for every cache entry, oldest
        access first (the eviction order)."""
        out = []
        try:
            shards = sorted(os.listdir(self.directory))
        except OSError:
            return out
        for shard in shards:
            shard_dir = os.path.join(self.directory, shard)
            try:
                names = sorted(os.listdir(shard_dir))
            except OSError:
                continue
            for name in names:
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                out.append((st.st_atime, st.st_size, path))
        out.sort()
        return out

    def total_bytes(self):
        return sum(size for _atime, size, _path in self.entries())

    def prune(self, max_bytes=None):
        """Evict least-recently-used entries until the cache fits in
        ``max_bytes`` (defaulting to the configured cap); returns the
        number of entries removed.  An explicit ``max_bytes`` rescans
        the directory first."""
        cap = max_bytes if max_bytes is not None else self.max_bytes
        if cap is None:
            return 0
        with self._lock:
            if max_bytes is not None or self._index is None:
                self._scan()
            return self._evict(cap)

    # -- the LRU index (callers hold ``_lock``) -------------------------

    def _scan(self):
        self._index = {path: size for _atime, size, path in self.entries()}
        self._total = sum(self._index.values())
        self._written = 0

    def _note(self, path, size):
        """Move ``path`` to the most recently used end."""
        self._total += size - self._index.pop(path, 0)
        self._index[path] = size

    def _evict(self, cap):
        removed = 0
        while self._total > cap and self._index:
            path = next(iter(self._index))
            self._total -= self._index.pop(path)
            try:
                os.remove(path)
            except OSError:
                continue        # deleted behind the index's back
            removed += 1
        self.pruned_entries += removed
        return removed


def build_run_cache(no_cache=False, directory=None, max_bytes=None,
                    default=DEFAULT_CACHE_DIR):
    """The run-cache policy of both CLIs and :func:`engine_from_env`:
    a :class:`RunCache` in ``directory`` (``--cache-dir``; None defers
    to :func:`resolve_cache_dir`), or None for ``no_cache`` or an empty
    directory.  The cap is ``max_bytes`` (``--cache-max-bytes``) when
    not None, even empty, else ``$REPRO_CACHE_MAX_BYTES``; it is parsed
    either way, so a malformed one raises ValueError."""
    cap = (parse_size_bytes(max_bytes) if max_bytes is not None
           else cache_max_bytes_from_env())
    if no_cache:
        return None
    if directory is None:
        directory = resolve_cache_dir(default)
    return RunCache(directory, max_bytes=cap) if directory else None


def resolve_cache_dir(default=None):
    """Cache directory policy: ``$REPRO_CACHE_DIR`` wins (empty string
    disables caching entirely), else ``default`` (the CLI passes
    ``DEFAULT_CACHE_DIR``; library use passes None -> no cache)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        return os.path.expanduser(env) if env else None
    return os.path.expanduser(default) if default else None


def cache_max_bytes_from_env():
    """Cache size cap from ``$REPRO_CACHE_MAX_BYTES`` (None =
    unbounded; suffixes k/m/g are 1024-based)."""
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    if not raw:
        return None
    try:
        return parse_size_bytes(raw)
    except ValueError as e:
        raise ValueError("REPRO_CACHE_MAX_BYTES: %s" % e) from None


def parse_size_bytes(raw):
    """Parse a byte count like ``500m``/``2g``/``1048576``."""
    text = str(raw).strip().lower()
    mult = 1
    if text and text[-1] in "kmg":
        mult = 1024 ** ("kmg".index(text[-1]) + 1)
        text = text[:-1]
    try:
        value = int(text) * mult
    except ValueError:
        raise ValueError("invalid byte size %r (use an integer with "
                         "an optional k/m/g suffix)" % (raw,)) from None
    if value <= 0:
        raise ValueError("byte size must be positive, got %r" % (raw,))
    return value


def jobs_from_env():
    """Worker count from ``$REPRO_JOBS`` (default 1 = serial)."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError("REPRO_JOBS must be an integer, got %r"
                         % raw) from None
    return max(1, jobs)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class RunEngine:
    """Executes batches of RunRequests with dedup, memoization and
    process fan-out; :meth:`snapshot` reads its own observability
    counters (recorded into experiment manifests)."""

    def __init__(self, jobs=None, cache=None, mode="simulate",
                 transport=None):
        if mode not in ENGINE_MODES:
            raise ValueError("unknown engine mode %r (choose from %s)"
                             % (mode, ", ".join(ENGINE_MODES)))
        self.jobs = max(1, int(jobs)) if jobs is not None \
            else jobs_from_env()
        self.cache = cache
        self.mode = mode
        #: Executor transport: where simulated points run.  None means
        #: in-process when ``jobs<=1`` and a per-batch
        #: :class:`LocalPoolTransport` otherwise.  An installed one
        #: (a long-lived local pool, a job server over HTTP) takes
        #: every simulated point and is started and stopped by its
        #: owner.  Contract: ``start()``, ``stop()``,
        #: ``capacity()`` (advisory parallelism), ``describe()``, and
        #: ``submit(request, key)`` returning a Future of ``(summary,
        #: meta)`` with ``meta = {"worker": str, "exec_s": float}``.
        self.transport = transport
        self.fingerprint = code_fingerprint()
        self.requests = 0
        self.unique_points = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.executed = 0
        self.exec_wall_s = 0.0
        self.driven_events = 0
        self.estimated = 0
        self.estimate_wall_s = 0.0
        self.estimate_fallbacks = 0
        self.auto_boundary_simulations = 0
        #: Per-request span log + engine gauges (repro.obs.recorder).
        self.recorder = FlightRecorder()

    def events_per_sec(self):
        if self.exec_wall_s <= 0:
            return 0.0
        return self.driven_events / self.exec_wall_s

    def capacity(self):
        """Worker count points fan out to: the transport's capacity,
        else ``jobs``."""
        if self.transport is not None:
            return self.transport.capacity()
        return self.jobs

    def cache_hit_ratio(self):
        """Warm-cache hit ratio across this engine's lifetime."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def snapshot(self):
        """The engine's counters, gauges, settings and flight recorder
        as a plain dict (manifest-ready)."""
        cache = self.cache
        return {
            "jobs": self.jobs,
            "requests": self.requests,
            "unique_points": self.unique_points,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "executed": self.executed,
            "exec_wall_s": self.exec_wall_s,
            "driven_events": self.driven_events,
            "estimated": self.estimated,
            "estimate_wall_s": self.estimate_wall_s,
            "estimate_fallbacks": self.estimate_fallbacks,
            "auto_boundary_simulations": self.auto_boundary_simulations,
            "events_per_sec": self.events_per_sec(),
            "cache_hit_ratio": self.cache_hit_ratio(),
            "in_flight": self.recorder.in_flight,
            "worker_utilization":
                self.recorder.utilization(self.capacity()),
            "cache_pruned_entries": (cache.pruned_entries
                                     if cache is not None else 0),
            "mode": self.mode,
            "cache_dir": cache.directory if cache is not None else None,
            "cache_max_bytes": (cache.max_bytes if cache is not None
                                else None),
            "transport": (self.transport.describe()
                          if self.transport is not None else "local"),
            "flight_recorder": self.recorder.summary(self.capacity()),
        }

    @staticmethod
    def _note_span(session, span):
        """Stream one flight-recorder span through the session (the
        job-server progress seam); no-op when nothing is observing."""
        if session is not None:
            session.emit("engine_span", span)

    def _apply_mode_policy(self, requests):
        """Resolve the engine-level mode into per-request modes.

        ``estimate`` rewrites every estimator-capable request;
        ``auto`` asks the estimator's triage (envelope trust region +
        decision-boundary analysis) which points may be estimated.
        Requests the estimator cannot or should not handle keep their
        simulate mode and are counted as fallbacks."""
        from dataclasses import replace

        from repro.analytic import estimator as _estimator

        if self.mode == "estimate":
            decisions = [
                "estimate" if (req.mode == "estimate"
                               or _estimator.can_estimate(req))
                else "fallback"
                for req in requests]
        else:
            decisions = _estimator.triage(requests)
        out = []
        for req, decision in zip(requests, decisions):
            if decision == "estimate":
                out.append(req if req.mode == "estimate"
                           else replace(req, mode="estimate"))
            else:
                if decision == "boundary":
                    self.auto_boundary_simulations += 1
                else:
                    self.estimate_fallbacks += 1
                out.append(req)
        return out

    def run(self, requests):
        """Execute a batch; returns RunSummaries aligned with
        ``requests`` (duplicates share one simulation)."""
        requests = list(requests)
        self.requests += len(requests)
        if self.mode != "simulate":
            requests = self._apply_mode_policy(requests)
        session = _obs_session.current_session()
        # Tracing, stats inspection, telemetry sampling and profiling
        # all need live Systems: force in-process execution and skip
        # cache reads so every point simulates.
        live_only = session is not None and session.needs_live()
        rec = self.recorder

        keys = [req.key(self.fingerprint) for req in requests]
        order = []
        by_key = {}
        for req, key in zip(requests, keys):
            if key not in by_key:
                by_key[key] = req
                order.append(key)
        self.unique_points += len(order)
        rec.start_batch(len(order))
        t_batch = clock()
        try:
            summaries = {}
            missing = []
            for key in order:
                cached = None
                if self.cache is not None and not live_only:
                    t_s = clock()
                    cached = self.cache.get(key)
                    if cached is not None:
                        self.cache_hits += 1
                        self._note_span(session, rec.record(
                            key, "cache-replay", "local", 0.0,
                            clock() - t_s, t_s - rec.epoch))
                    else:
                        self.cache_misses += 1
                if cached is not None:
                    summaries[key] = cached
                    if session is not None:
                        session.note_summary(cached)
                else:
                    missing.append(key)

            est_missing = [k for k in missing
                           if by_key[k].mode == "estimate"]
            if est_missing:
                # Analytic points resolve in microseconds: always
                # in-process, with their own wall-clock accounting so the
                # simulation throughput stats stay comparable.
                from repro.analytic.estimator import estimate_to_summary
                t0 = clock()
                for k in est_missing:
                    t_s = clock()
                    summary = estimate_to_summary(by_key[k], k)
                    summaries[k] = summary
                    self.estimated += 1
                    self.estimate_wall_s += clock() - t_s
                    self._note_span(session, rec.record(
                        k, "estimate", "local", t_s - t0,
                        clock() - t_s, t_s - rec.epoch))
                    if session is not None:
                        session.note_summary(summary)
                    if self.cache is not None and not live_only:
                        self.cache.put(k, summary)

            sim_missing = [k for k in missing
                           if by_key[k].mode != "estimate"]
            if sim_missing:
                t0 = clock()
                # A live session always executes in-process (tracer/stats
                # need the System); otherwise an installed transport takes
                # every point, and the classic local rules apply without
                # one.
                in_process = live_only or (
                    self.transport is None
                    and (self.jobs <= 1 or len(sim_missing) <= 1))
                if in_process:
                    # run_system records these into the session itself
                    # (tracer attach, rich manifests) -- no double noting.
                    executed = []
                    for k in sim_missing:
                        t_s = clock()
                        summary = _execute_to_summary(by_key[k], k)
                        executed.append(summary)
                        self._note_span(session, rec.record(
                            k, "simulate", "local", t_s - t0,
                            clock() - t_s, t_s - rec.epoch))
                else:
                    executed = self._run_pool([(by_key[k], k)
                                               for k in sim_missing],
                                              t0, session)
                    if session is not None:
                        for summary in executed:
                            session.note_summary(summary)
                self.exec_wall_s += clock() - t0
                for key, summary in zip(sim_missing, executed):
                    summaries[key] = summary
                    self.executed += 1
                    self.driven_events += summary.driven_events()
                    if self.cache is not None and not live_only:
                        self.cache.put(key, summary)
        finally:
            # a batch that raises must not leave the in-flight gauge up
            rec.end_batch(clock() - t_batch)
        return [summaries[key] for key in keys]

    def _run_pool(self, payloads, t_batch, session=None):
        """Fan a batch out through the executor transport.

        Without an installed transport a per-batch local process pool
        is built and torn down here; an installed transport is
        long-lived and owned by whoever installed it (the job server,
        the CLI's ``--server``, a test)."""
        transport = self.transport
        owned = transport is None
        if owned:
            transport = LocalPoolTransport(
                jobs=min(self.jobs, len(payloads)))
        transport.start()
        done_at = {}
        try:
            futures = []
            for payload in payloads:
                fut = transport.submit(*payload)
                fut.add_done_callback(
                    functools.partial(_stamp_done, done_at, payload[1]))
                futures.append(fut)
            results = []
            for (_request, key), fut in zip(payloads, futures):
                summary, meta = fut.result()
                # Span start reconstructed parent-side: completion
                # stamp minus the worker-reported duration.
                ended = done_at.get(key, clock())
                started = ended - meta["exec_s"]
                self._note_span(session, self.recorder.record(
                    key, "simulate", meta["worker"],
                    max(started - t_batch, 0.0), meta["exec_s"],
                    started - self.recorder.epoch))
                results.append(summary)
            return results
        finally:
            if owned:
                transport.stop()


# ---------------------------------------------------------------------------
# ambient engine (how experiment functions find it)
# ---------------------------------------------------------------------------


_current = None


def current_engine():
    """The installed engine, or None when nothing is installed."""
    return _current


@contextmanager
def use_engine(engine):
    """Install ``engine`` as the ambient one for the block (the CLI
    wraps each experiment invocation in this)."""
    global _current
    prev = _current
    _current = engine
    try:
        yield engine
    finally:
        _current = prev


def engine_from_env():
    """Default engine for direct library calls: ``$REPRO_JOBS`` workers
    and a cache only if ``$REPRO_CACHE_DIR`` names one (capped by
    ``$REPRO_CACHE_MAX_BYTES``)."""
    return RunEngine(jobs=None, cache=build_run_cache(default=None))


def run_grid(requests):
    """Run a batch of points through the ambient engine (building an
    environment-default engine when none is installed)."""
    engine = _current if _current is not None else engine_from_env()
    return engine.run(requests)
