"""Shared benchmark plumbing.

Each benchmark runs its experiment exactly once (``benchmark.pedantic``
with one round: these are scientific reproductions, not microbenchmarks
to be re-sampled), prints the regenerated table, and writes it to
``benchmarks/results/<id>.txt`` so EXPERIMENTS.md can reference it.

Every benchmark also runs under a metered :class:`repro.sim.engine.
RunEngine`; per-figure wall clock and engine throughput (driven
events/sec, cache hits/misses) are collected and written to
``benchmarks/results/BENCH_engine.json`` at the end of the session, so
CI can archive one machine-readable performance record per run.
"""

import json
import os
import time

import pytest

from repro.experiments.common import render_table
from repro.sim import engine as sim_engine

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BENCH_ENGINE_PATH = os.path.join(RESULTS_DIR, "BENCH_engine.json")


def write_bench_json(name, payload):
    """Write a BENCH_*.json record to ``benchmarks/results/`` (the copy
    CI uploads)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")

#: node name -> {"wall_clock_s": ..., "engine": snapshot, ...extras}
_ENGINE_RECORDS = {}


@pytest.fixture(autouse=True)
def metered_engine(request):
    """Install a fresh run engine for each benchmark and record its
    wall clock + throughput counters for BENCH_engine.json.  Caching is
    off by default so every figure reports real simulation time; set
    $REPRO_JOBS to benchmark parallel fan-out.  A benchmark that builds
    its own engines leaves this one unused; its record then carries no
    ``engine`` snapshot rather than an all-zero one."""
    engine = sim_engine.RunEngine(jobs=sim_engine.jobs_from_env(),
                                  cache=None)
    start = time.perf_counter()
    with sim_engine.use_engine(engine):
        yield engine
    record = _ENGINE_RECORDS.setdefault(request.node.name, {})
    record["wall_clock_s"] = round(time.perf_counter() - start, 3)
    if engine.requests:
        record["engine"] = engine.snapshot()


@pytest.fixture
def bench_extra(request):
    """Let a benchmark attach extra measurements (e.g. speedup phases)
    to its BENCH_engine.json record."""
    def _add(payload):
        _ENGINE_RECORDS.setdefault(request.node.name, {}).update(payload)
    return _add


def pytest_sessionfinish(session, exitstatus):
    if not _ENGINE_RECORDS:
        return
    payload = {
        "schema": "silo-repro-bench-engine/1",
        "host_cpu_count": os.cpu_count(),
        "jobs_env": os.environ.get("REPRO_JOBS") or None,
        "figures": _ENGINE_RECORDS,
    }
    write_bench_json("BENCH_engine.json", payload)


@pytest.fixture
def write_bench():
    """Write a benchmark's own BENCH_*.json record to
    ``benchmarks/results/``."""
    return write_bench_json


@pytest.fixture
def record_result():
    def _record(name, rows, title=None, columns=None):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        text = render_table(rows, columns=columns, title=title or name)
        path = os.path.join(RESULTS_DIR, name + ".txt")
        with open(path, "w") as f:
            f.write(text + "\n")
        print()
        print(text)
        return rows
    return _record


@pytest.fixture
def run_once(benchmark):
    """Run an experiment function exactly once under the benchmark
    timer."""
    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)
    return _run
