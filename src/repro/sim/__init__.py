"""Trace-driven CMP simulation: system assembly, the access pipeline
(L1 -> [L2] -> LLC -> directory -> memory) with full MESI/MOESI
coherence, the run driver with SMARTS-style warmup/measure sampling,
the parallel/memoized run engine, and statistics."""

from repro.sim.config import HierarchyConfig
from repro.sim.system import System
from repro.sim.driver import RunResult, run_system, simulate
from repro.sim.engine import (RunCache, RunEngine, RunRequest,
                              current_engine, run_grid, use_engine)
from repro.sim.sampling import SamplingPlan, parse_plan
from repro.sim.summary import RunSummary

__all__ = ["HierarchyConfig", "System", "RunResult", "run_system",
           "simulate", "RunCache", "RunEngine", "RunRequest",
           "RunSummary", "current_engine", "run_grid", "use_engine",
           "SamplingPlan", "parse_plan"]
