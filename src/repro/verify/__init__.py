"""Static verification of the SILO simulator.

Two engines, both runnable via ``python -m repro.verify`` and wired
into the ``verify-static`` CI job:

* :mod:`repro.verify.protocol_spec` / :mod:`repro.verify.model_check`
  -- the MOESI (and MESI-ablation) coherence protocol of the private
  vault organization, extracted from :mod:`repro.coherence.states` and
  :class:`repro.sim.system.System` into an explicit declarative
  transition table, exhaustively enumerated (Murphi-style BFS with
  state hashing) for small systems.  Every reachable (directory entry
  x per-core vault/L1 state x in-flight request) configuration is
  checked against the protocol invariants; violations come with a
  minimal counterexample trace.  Every transition the search
  enumerates is then replayed on a live ``VaultSystem`` of the same
  protocol (``check_concrete_system``), and each core's vault, L1 and
  directory state must land where the table says.
* :mod:`repro.verify.lint` -- "silolint", an ``ast``-based, per-file
  lint pass with simulator-specific rules SL002-SL010 (unregistered
  stat counters, hard-coded timing/size constants, set-iteration
  nondeterminism, float equality in timing code, module-level mutable
  state, per-event work in hot paths, raw wall-clock reads, blocking
  calls in the async server, and environment reads outside the
  reviewed ``ENV_READERS``).
  ``tools/seeded_bugs.py`` records which planted defects each rule
  catches that the test suite misses.

Dynamic testing (``tests/test_coherence_invariants.py``) only checks
the states a workload happens to reach; the model checker covers the
transitions a trace never exercises, its replay holds the simulator to
each of them, and silolint hardens every future refactor against the
simulator's reproducibility contracts.
"""

from repro.verify.protocol_spec import build_table, EVENTS, INVARIANTS
from repro.verify.model_check import (ModelChecker, CheckResult,
                                      Violation, check_protocol,
                                      check_concrete_system)
from repro.verify.lint import LintReport, lint_paths, RULES

__all__ = [
    "build_table", "EVENTS", "INVARIANTS",
    "ModelChecker", "CheckResult", "Violation", "check_protocol",
    "check_concrete_system",
    "LintReport", "lint_paths", "RULES",
]
