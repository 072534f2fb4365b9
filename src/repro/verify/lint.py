"""silolint: simulator-specific static lint rules.

Generic linters know nothing about what makes a simulator *wrong*:
results that silently stop being reproducible, counters that escape the
stats registry, magic timing numbers that drift away from Table II.
silolint encodes those contracts as ``ast``-level rules:

* **SL001** -- unseeded randomness: module-level ``random.*`` calls or
  ``random.Random()`` with no seed.  Every random stream must be
  derived from an explicit seed, or run manifests (PR 1) stop being
  reproducible.
* **SL002** -- a counter-looking attribute (``self.hits += 1``, ...)
  mutated in a module with no stats-registry linkage: the module
  neither defines ``register_stats``/``_build_stats`` nor imports
  :mod:`repro.obs`, so the counter can never be snapshot or reset by
  the registry.
* **SL003** -- hard-coded latency/size constants in timing-critical
  packages (``sim``, ``caches``, ``noc``, ``memory``): a numeric
  literal assigned to (or defaulted into, or passed as a keyword named
  like) ``*latency*``/``*_ns``/``*_bytes``/``*_cycles``/``*_size``
  bypasses :mod:`repro.params`, the single source of Table II truth.
* **SL004** -- iteration over a ``set``/``frozenset`` in
  timing-affecting code (``sim``, ``caches``, ``coherence``, ``noc``,
  ``memory``): set order is unspecified across runs/versions, a
  nondeterminism hazard wherever iteration order can reach timing or
  eviction decisions.
* **SL005** -- ``==``/``!=`` against a float literal in the same
  timing-affecting packages: clock arithmetic accumulates rounding, so
  float equality is either dead or flaky.
* **SL007** -- per-event work in a hot-path function: a function
  marked with a ``# silolint: hotpath`` comment (the driver's event
  loop with its inline L1-hit probe, ``System.access``) must not
  allocate containers (displays, comprehensions, ``list()``-family
  constructors) or re-traverse multi-step attribute chains
  (``self.a.b``) inside its loops -- those costs multiply by hundreds
  of millions of events.  Hoist them to locals before the loop, or
  carry a justification with a ``disable`` comment (e.g. a bounded
  per-streak allocation, or a rarely-taken guarded branch).
* **SL006** -- module-level mutable state in the process-fan-out scope
  (``sim``, ``caches``): an empty container display (``{}``/``[]``) or
  a mutable-constructor call (``set()``, ``dict()``, ``list()``,
  ``defaultdict(...)``, ...) bound at module scope is an accumulator
  waiting to happen.  The run engine executes points in worker
  processes; each worker mutates its *own copy* of such state, so
  results silently diverge between serial and parallel runs.  Populated
  literal tables (``PRESETS = {"quick": ...}``) are immutable by
  convention and stay exempt.
* **SL008** -- raw wall-clock call (``time.time()``,
  ``time.perf_counter()``, ``time.monotonic()``, ...) in simulator
  packages (``sim``, ``caches``, ``coherence``, ``noc``) outside
  :mod:`repro.obs`: every self-measurement must read
  :data:`repro.obs.profile.clock`, so the profiler, telemetry windows
  and recorded wall clocks are all on one clock source.
* **SL009** -- blocking call inside an ``async def`` in event-loop
  packages (``serve``): ``time.sleep``, synchronous
  ``socket.recv``-family methods, ``subprocess.run``-family calls or a
  bare ``open()``/file ``read()`` on the loop starves *every*
  connection the job server is handling.  Awaited calls are exempt
  (``await reader.readline()`` is the asyncio stream API), and nested
  plain ``def`` bodies pop back out of async context (they may run in
  an executor thread).

A finding on a given line is silenced with a trailing
``# silolint: disable=SL001`` (comma-separate several codes, or
``disable=all``); a whole file opts out of one rule with a
``# silolint: disable-file=SL003`` pragma on any line (typically the
module docstring's vicinity) -- suppressions are expected to carry a
justification comment.  Suppressions do not vanish: the report counts
them per rule (``--json`` exposes ``suppressed``), so a tree quietly
accumulating opt-outs is visible.  SL002 additionally resolves one
step interprocedurally: a helper module whose in-program callers all
have stats-registry linkage inherits that linkage (see
:func:`_resolve_sl002_interproc`), so pure helper modules need no
suppression.  Output is ``file:line:col: CODE message`` or, with
``--json``, a machine-readable report (see :meth:`LintReport.as_dict`).
"""

import ast
import json
import os
import re
import sys
from collections import namedtuple

#: Rule registry: code -> one-line description.
RULES = {
    "SL001": "unseeded randomness (module-level random.* call or "
             "random.Random() without a seed)",
    "SL002": "stat counter mutated as a bare int in a module with no "
             "stats-registry linkage (repro.obs)",
    "SL003": "hard-coded latency/size constant bypassing repro.params",
    "SL004": "iteration over an unordered set in timing-affecting code",
    "SL005": "float equality comparison in timing-affecting code",
    "SL006": "module-level mutable state that breaks process fan-out",
    "SL007": "per-event allocation or attribute chain in a "
             "hotpath-marked function",
    "SL008": "raw wall-clock call bypassing repro.obs.profile.clock "
             "in simulator code",
    "SL009": "blocking call inside an async def (starves the job "
             "server's event loop)",
}

#: Packages whose code paths decide timing (SL004/SL005 scope).
TIMING_DIRS = frozenset(("sim", "caches", "coherence", "noc", "memory"))
#: Packages that must take latencies/sizes from repro.params (SL003).
PARAMS_DIRS = frozenset(("sim", "caches", "noc", "memory"))
#: Packages the run engine fans out across processes (SL006 scope):
#: module-level mutable state there diverges per worker.
FANOUT_DIRS = frozenset(("sim", "caches"))
#: Packages whose wall-clock reads must go through
#: repro.obs.profile.clock (SL008 scope; repro.obs itself is exempt).
WALLCLOCK_DIRS = frozenset(("sim", "caches", "coherence", "noc"))
#: Packages hosting asyncio event loops (SL009 scope): a synchronous
#: sleep/socket/subprocess/file call in an ``async def`` there stalls
#: every connection the loop is serving.
ASYNC_DIRS = frozenset(("serve",))

#: Method names whose synchronous call blocks (sockets, file objects);
#: awaited calls (``await reader.readline()``) are exempt -- those are
#: the asyncio stream API, not the blocking one.
_BLOCKING_METHODS = frozenset((
    "recv", "recv_into", "recvfrom", "accept", "connect", "sendall",
    "read", "readline", "readlines", "readinto", "readexactly"))

#: ``subprocess`` entry points that block until the child finishes.
_SUBPROCESS_FNS = frozenset(("run", "call", "check_call",
                             "check_output", "getoutput",
                             "getstatusoutput"))

#: ``time``-module functions that read a clock (SL008).
_WALLCLOCK_FNS = frozenset((
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns",
    "clock_gettime", "clock_gettime_ns"))

#: Constructor names whose module-level call yields mutable state.
_MUTABLE_CONSTRUCTORS = frozenset((
    "set", "dict", "list", "bytearray", "defaultdict", "deque",
    "Counter", "OrderedDict"))

#: One finding.
Violation = namedtuple("Violation", "file line col rule message")

_SUPPRESS_RE = re.compile(
    r"#\s*silolint:\s*disable=([A-Za-z0-9_,\s]+)")

_FILE_SUPPRESS_RE = re.compile(
    r"#\s*silolint:\s*disable-file=([A-Za-z0-9_,\s]+)")

_HOTPATH_RE = re.compile(r"#\s*silolint:\s*hotpath\b")

#: Constructor calls that allocate a fresh container per call (SL007).
_ALLOC_CONSTRUCTORS = frozenset(("list", "dict", "tuple", "set",
                                 "frozenset"))

_RANDOM_MODULE_FNS = frozenset((
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "paretovariate",
    "triangular", "vonmisesvariate", "weibullvariate", "seed",
    "getrandbits", "randbytes"))

_COUNTER_SUFFIXES = ("_count", "_hits", "_misses", "_accesses",
                     "_writebacks", "_evictions", "_fills", "_lookups",
                     "_forwards", "_traversals", "_conflicts",
                     "_invalidations", "_segments")
_COUNTER_NAMES = frozenset((
    "count", "hits", "misses", "accesses", "invalidations", "issued",
    "reads", "writes", "conflicts", "unknown", "link_traversals",
    "replica_hits", "prefetch_fills", "known_misses"))

_SIZE_LATENCY_SUFFIXES = ("_latency", "_ns", "_bytes", "_cycles",
                          "_size")


def _is_counter_name(name):
    """Heuristic: does an attribute look like a statistics counter?"""
    return name in _COUNTER_NAMES or name.endswith(_COUNTER_SUFFIXES)


def _is_size_latency_name(name):
    """Heuristic: does a name denote a latency or a capacity?"""
    n = name.lower()
    return ("latency" in n or n.endswith(_SIZE_LATENCY_SUFFIXES)
            or n.startswith("size_"))


def _numeric_literal(node):
    """The int/float value of a Constant node, or None (bools are not
    numeric literals for our purposes)."""
    if (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)):
        return node.value
    return None


def _suppressions(line_text):
    """Rule codes disabled by the line's silolint comment (may contain
    ``"all"``)."""
    m = _SUPPRESS_RE.search(line_text)
    if not m:
        return frozenset()
    return frozenset(tok.strip().upper() if tok.strip() != "all"
                     else "all"
                     for tok in m.group(1).split(",") if tok.strip())


def _file_suppressions(lines):
    """Rule codes disabled for the whole file by
    ``# silolint: disable-file=<rule>`` pragmas (on any line)."""
    out = set()
    for line in lines:
        m = _FILE_SUPPRESS_RE.search(line)
        if m:
            out.update(tok.strip().upper() if tok.strip() != "all"
                       else "all"
                       for tok in m.group(1).split(",") if tok.strip())
    return frozenset(out)


class _ModuleFacts:
    """Module-level context the rules need: which names came from the
    ``random`` module, and whether the module is linked to the stats
    registry."""

    def __init__(self, tree, path_parts):
        self.random_names = {}   # local name -> original random.* name
        self.time_names = {}     # local name -> original time.* name
        self.has_registry = "obs" in path_parts
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        self.random_names[alias.asname or alias.name] \
                            = alias.name
                elif node.module == "time":
                    for alias in node.names:
                        self.time_names[alias.asname or alias.name] \
                            = alias.name
                elif node.module and node.module.startswith("repro.obs"):
                    self.has_registry = True
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.obs"):
                        self.has_registry = True
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                if node.name in ("register_stats", "_build_stats"):
                    self.has_registry = True


class _FileLinter(ast.NodeVisitor):
    """Collects violations for one parsed source file."""

    def __init__(self, path, tree, path_parts, lines=()):
        self.path = path
        self.lines = lines
        self.facts = _ModuleFacts(tree, path_parts)
        self.in_timing = bool(TIMING_DIRS & path_parts)
        self.in_params_scope = (bool(PARAMS_DIRS & path_parts)
                                and os.path.basename(path) != "params.py")
        self.in_fanout_scope = bool(FANOUT_DIRS & path_parts)
        # repro.obs owns the sanctioned clock; it is exempt from SL008.
        self.in_wallclock_scope = (bool(WALLCLOCK_DIRS & path_parts)
                                   and "obs" not in path_parts)
        self.in_async_scope = bool(ASYNC_DIRS & path_parts)
        # Innermost function kind: True inside an ``async def`` body
        # (a nested plain ``def`` pops back out -- it may legitimately
        # run in an executor thread).
        self._async_stack = [False]
        # Call nodes under an ``await`` (the asyncio stream API looks
        # like the blocking one; awaiting is what makes it non-blocking).
        self._awaited = set()
        # Statements directly at module scope (SL006 only fires there:
        # function-local and instance state is per-execution anyway).
        self._module_stmts = frozenset(id(stmt) for stmt in tree.body)
        self.violations = []

    def _flag(self, node, rule, message):
        self.violations.append(Violation(
            self.path, node.lineno, node.col_offset, rule, message))

    # -- SL001 ---------------------------------------------------------

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"):
            if func.attr == "Random":
                if not node.args and not node.keywords:
                    self._flag(node, "SL001",
                               "random.Random() without an explicit "
                               "seed breaks run reproducibility")
            elif func.attr in _RANDOM_MODULE_FNS:
                self._flag(node, "SL001",
                           "module-level random.%s() draws from the "
                           "shared unseeded stream" % func.attr)
        elif isinstance(func, ast.Name):
            origin = self.facts.random_names.get(func.id)
            if origin == "Random":
                if not node.args and not node.keywords:
                    self._flag(node, "SL001",
                               "Random() without an explicit seed "
                               "breaks run reproducibility")
            elif origin in _RANDOM_MODULE_FNS:
                self._flag(node, "SL001",
                           "module-level random.%s() (imported as %s) "
                           "draws from the shared unseeded stream"
                           % (origin, func.id))
        if self.in_params_scope:
            for kw in node.keywords:
                if (kw.arg and _is_size_latency_name(kw.arg)
                        and _numeric_literal(kw.value) not in (None, 0,
                                                               1)):
                    self._flag(kw.value, "SL003",
                               "literal %r passed as %s= bypasses "
                               "repro.params"
                               % (kw.value.value, kw.arg))
        # -- SL008 -----------------------------------------------------
        if self.in_wallclock_scope:
            called = None
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                    and func.attr in _WALLCLOCK_FNS):
                called = "time.%s()" % func.attr
            elif isinstance(func, ast.Name):
                origin = self.facts.time_names.get(func.id)
                if origin in _WALLCLOCK_FNS:
                    called = "time.%s() (imported as %s)" % (origin,
                                                             func.id)
            if called is not None:
                self._flag(node, "SL008",
                           "raw wall-clock call %s in simulator code "
                           "(measure through repro.obs.profile.clock)"
                           % called)
        # -- SL009 -----------------------------------------------------
        if (self.in_async_scope and self._async_stack[-1]
                and id(node) not in self._awaited):
            blocking = self._blocking_call_desc(node)
            if blocking is not None:
                self._flag(node, "SL009",
                           "%s blocks the event loop inside an async "
                           "def (await the asyncio form, or move it to "
                           "an executor thread)" % blocking)
        self.generic_visit(node)

    def _blocking_call_desc(self, node):
        """How this call blocks an event loop, or None (SL009)."""
        func = node.func
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            owner = func.value.id
            if owner == "time" and func.attr == "sleep":
                return "time.sleep()"
            if owner == "subprocess" and func.attr in _SUBPROCESS_FNS:
                return "subprocess.%s()" % func.attr
            if owner == "os" and func.attr in ("system", "wait",
                                               "waitpid"):
                return "os.%s()" % func.attr
        if isinstance(func, ast.Attribute) \
                and func.attr in _BLOCKING_METHODS:
            return "synchronous .%s()" % func.attr
        if isinstance(func, ast.Name):
            if self.facts.time_names.get(func.id) == "sleep":
                return "time.sleep() (imported as %s)" % func.id
            if func.id == "open":
                return "open()"
        return None

    def visit_Await(self, node):
        if isinstance(node.value, ast.Call):
            self._awaited.add(id(node.value))
        self.generic_visit(node)

    # -- SL002 ---------------------------------------------------------

    def visit_AugAssign(self, node):
        if (not self.facts.has_registry
                and isinstance(node.op, (ast.Add, ast.Sub))
                and isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"
                and _is_counter_name(node.target.attr)):
            self._flag(node, "SL002",
                       "counter self.%s mutated in a module with no "
                       "stats-registry linkage (define register_stats "
                       "or bind it via repro.obs)" % node.target.attr)
        self.generic_visit(node)

    # -- SL003 ---------------------------------------------------------

    def _check_assign_target(self, target, value):
        if (isinstance(target, ast.Name)
                and _is_size_latency_name(target.id)
                and _numeric_literal(value) not in (None, 0, 1, -1)):
            self._flag(value, "SL003",
                       "hard-coded %s = %r bypasses repro.params"
                       % (target.id, value.value))

    def visit_Assign(self, node):
        if self.in_params_scope:
            for target in node.targets:
                self._check_assign_target(target, node.value)
        self._check_module_mutable(node, node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if self.in_params_scope and node.value is not None:
            self._check_assign_target(node.target, node.value)
        if node.value is not None:
            self._check_module_mutable(node, [node.target], node.value)
        self.generic_visit(node)

    # -- SL006 ---------------------------------------------------------

    @staticmethod
    def _mutable_value_desc(value):
        """How ``value`` builds module-level mutable state, or None.
        Populated literal displays pass: they are lookup tables by
        convention, and mutating one would trip SL006 reviewers anyway.
        """
        if isinstance(value, ast.Dict) and not value.keys:
            return "{}"
        if isinstance(value, ast.List) and not value.elts:
            return "[]"
        if isinstance(value, ast.Call):
            func = value.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in _MUTABLE_CONSTRUCTORS:
                return "%s(...)" % name
        return None

    def _check_module_mutable(self, node, targets, value):
        if (not self.in_fanout_scope
                or id(node) not in self._module_stmts):
            return
        desc = self._mutable_value_desc(value)
        if desc is None:
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        self._flag(node, "SL006",
                   "module-level mutable state %s = %s diverges across "
                   "run-engine worker processes (keep per-run state on "
                   "an object, or make this immutable)"
                   % (", ".join(names), desc))

    def _check_defaults(self, node):
        args = node.args
        pos = args.posonlyargs + args.args
        for arg, default in zip(pos[len(pos) - len(args.defaults):],
                                args.defaults):
            self._check_default(arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self._check_default(arg, default)

    def _check_default(self, arg, default):
        if (_is_size_latency_name(arg.arg)
                and _numeric_literal(default) not in (None, 0, 1, -1)):
            self._flag(default, "SL003",
                       "default %s=%r bypasses repro.params"
                       % (arg.arg, default.value))

    def visit_FunctionDef(self, node):
        if self.in_params_scope:
            self._check_defaults(node)
        if self._is_hotpath(node):
            self._check_hotpath(node)
        self._async_stack.append(isinstance(node,
                                            ast.AsyncFunctionDef))
        try:
            self.generic_visit(node)
        finally:
            self._async_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- SL007 ---------------------------------------------------------

    def _is_hotpath(self, node):
        """Is the function marked ``# silolint: hotpath``?  The marker
        is a comment on the ``def`` line itself or the line directly
        above it (above any decorators)."""
        first = min([node.lineno]
                    + [d.lineno for d in node.decorator_list])
        for lineno in (node.lineno, first - 1):
            if 0 < lineno <= len(self.lines):
                if _HOTPATH_RE.search(self.lines[lineno - 1]):
                    return True
        return False

    def _check_hotpath(self, func):
        """SL007: no per-event allocations or attribute chains in a
        hot-path function.  When the function contains loops, only
        loop bodies are per-event; a loop-free hot function (a helper
        called once per event) is per-event in its entirety."""
        loops = [n for n in ast.walk(func)
                 if isinstance(n, (ast.For, ast.While))]
        if loops:
            roots = []
            for loop in loops:
                roots.extend(loop.body)
                roots.extend(loop.orelse)
        else:
            roots = func.body
        seen = set()
        nodes = []
        for root in roots:
            for n in ast.walk(root):
                if id(n) not in seen:
                    seen.add(id(n))
                    nodes.append(n)
        # A chain like ``a.b.c`` nests an Attribute inside an
        # Attribute; flag only the outermost node of each chain.
        inner = set()
        for n in nodes:
            if (isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Attribute)):
                inner.add(id(n.value))
        for n in nodes:
            if isinstance(n, (ast.ListComp, ast.SetComp, ast.DictComp,
                              ast.GeneratorExp)):
                self._flag(n, "SL007",
                           "comprehension allocated per event in a "
                           "hot path (hoist or unroll it)")
            elif isinstance(n, (ast.List, ast.Set, ast.Dict)) and (
                    not isinstance(n, ast.List)
                    or isinstance(n.ctx, ast.Load)):
                self._flag(n, "SL007",
                           "container display allocated per event in "
                           "a hot path (hoist it out of the loop)")
            elif (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name)
                    and n.func.id in _ALLOC_CONSTRUCTORS):
                self._flag(n, "SL007",
                           "%s() allocated per event in a hot path "
                           "(hoist it out of the loop)" % n.func.id)
            elif (isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Attribute)
                    and id(n) not in inner):
                self._flag(n, "SL007",
                           "attribute chain %s re-traversed per event "
                           "in a hot path (bind it to a local)"
                           % self._chain_repr(n))

    @staticmethod
    def _chain_repr(node):
        """Dotted form of an attribute chain, best effort."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        parts.append(node.id if isinstance(node, ast.Name) else "...")
        return ".".join(reversed(parts))

    # -- SL004 ---------------------------------------------------------

    def _check_iteration(self, iter_node):
        if not self.in_timing:
            return
        flagged = None
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            flagged = "a set literal"
        elif (isinstance(iter_node, ast.Call)
              and isinstance(iter_node.func, ast.Name)
              and iter_node.func.id in ("set", "frozenset")):
            flagged = "%s(...)" % iter_node.func.id
        if flagged:
            self._flag(iter_node, "SL004",
                       "iterating over %s: set order is unspecified "
                       "(sort it, or use a list/dict)" % flagged)

    def visit_For(self, node):
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node):
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- SL005 ---------------------------------------------------------

    def visit_Compare(self, node):
        if self.in_timing and any(isinstance(op, (ast.Eq, ast.NotEq))
                                  for op in node.ops):
            for operand in [node.left] + node.comparators:
                if (isinstance(operand, ast.Constant)
                        and isinstance(operand.value, float)):
                    self._flag(node, "SL005",
                               "float equality against %r in timing "
                               "code (compare with a tolerance or use "
                               "integers)" % operand.value)
                    break
        self.generic_visit(node)


class LintReport:
    """Aggregated result of linting a set of paths."""

    def __init__(self):
        self.violations = []
        self.errors = []        # (path, message) for unparseable files
        self.files_scanned = 0
        #: rule -> count of findings silenced by disable/disable-file
        #: pragmas (suppressions must not vanish from reports).
        self.suppressed_counts = {}
        #: SL002 findings resolved by the one-step interprocedural
        #: caller check rather than by a pragma.
        self.interproc_resolved = 0

    @property
    def ok(self):
        """True when every scanned file parsed and no rule fired."""
        return not self.violations and not self.errors

    def counts(self):
        """Violations per rule code."""
        out = {}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return out

    def suppressed_total(self):
        return sum(self.suppressed_counts.values())

    def as_dict(self):
        """JSON-ready report (the ``--json`` output schema).

        Version 2 adds the rule inventory (``rules``), per-rule
        suppression counts (``suppressed``), and the number of SL002
        findings the interprocedural caller check resolved
        (``interproc_resolved``).
        """
        return {
            "version": 2,
            "files_scanned": self.files_scanned,
            "counts": self.counts(),
            "rules": dict(RULES),
            "violations": [
                {"file": v.file, "line": v.line, "col": v.col,
                 "rule": v.rule, "message": v.message}
                for v in self.violations],
            "suppressed": {
                "total": self.suppressed_total(),
                "counts": dict(sorted(self.suppressed_counts.items())),
            },
            "interproc_resolved": self.interproc_resolved,
            "errors": [{"file": p, "message": m}
                       for p, m in self.errors],
        }

    def render(self):
        """Human-readable ``file:line:col: CODE message`` lines."""
        lines = ["%s:%d:%d: %s %s" % v for v in self.violations]
        lines.extend("%s: error: %s" % e for e in self.errors)
        return "\n".join(lines)


def lint_file(path, report):
    """Lint one source file into ``report``."""
    try:
        with open(path, encoding="utf-8") as f:
            source = f.read()
        tree = ast.parse(source, filename=path)
    except (OSError, SyntaxError, ValueError) as e:
        report.errors.append((path, str(e)))
        return
    report.files_scanned += 1
    parts = frozenset(os.path.normpath(os.path.abspath(path))
                      .split(os.sep)[:-1])
    lines = source.splitlines()
    linter = _FileLinter(path, tree, parts, lines)
    linter.visit(tree)
    if not linter.violations:
        return
    file_disabled = _file_suppressions(lines)
    for v in linter.violations:
        text = lines[v.line - 1] if 0 < v.line <= len(lines) else ""
        disabled = _suppressions(text) | file_disabled
        if "all" in disabled or v.rule in disabled:
            report.suppressed_counts[v.rule] = (
                report.suppressed_counts.get(v.rule, 0) + 1)
            continue
        report.violations.append(v)


def _resolve_sl002_interproc(report, paths):
    """Resolve SL002 one step interprocedurally.

    A helper module with no stats-registry linkage of its own is fine
    when every in-program caller of its functions has that linkage:
    the counters it mutates belong to objects the registered modules
    own and snapshot.  Built on the call graph of
    :mod:`repro.verify.callgraph`; only runs when SL002 findings
    survived the per-file pass, so clean trees pay nothing.
    """
    if not any(v.rule == "SL002" for v in report.violations):
        return
    from repro.verify import callgraph as _cg
    index = _cg.index_paths(list(paths))
    graph = _cg.build_call_graph(index)
    registered = {}
    for minfo in index.modules.values():
        parts = frozenset(os.path.normpath(os.path.abspath(minfo.file))
                          .split(os.sep)[:-1])
        registered[minfo.module] = _ModuleFacts(minfo.tree,
                                                parts).has_registry
    caller_mods = {}             # callee module -> {caller modules}
    for caller, callees in graph.items():
        cmod = caller.split("::", 1)[0]
        for callee in callees:
            caller_mods.setdefault(callee.split("::", 1)[0],
                                   set()).add(cmod)
    resolved_files = set()
    for abspath, minfo in index.files.items():
        if registered.get(minfo.module):
            continue
        callers = caller_mods.get(minfo.module, set()) - {minfo.module}
        if callers and all(registered.get(m, False) for m in callers):
            resolved_files.add(abspath)
    if not resolved_files:
        return
    kept = []
    for v in report.violations:
        if (v.rule == "SL002"
                and os.path.abspath(v.file) in resolved_files):
            report.interproc_resolved += 1
        else:
            kept.append(v)
    report.violations = kept


def lint_paths(paths, select=None):
    """Lint files and directory trees; returns a :class:`LintReport`.

    ``select`` optionally restricts the report to an iterable of rule
    codes.
    """
    report = LintReport()
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".py"):
                        lint_file(os.path.join(root, name), report)
        elif path.endswith(".py") or os.path.isfile(path):
            lint_file(path, report)
        else:
            report.errors.append((path, "no such file or directory"))
    _resolve_sl002_interproc(report, paths)
    report.violations.sort(key=lambda v: (v.file, v.line, v.col,
                                          v.rule))
    if select is not None:
        chosen = frozenset(select)
        report.violations = [v for v in report.violations
                             if v.rule in chosen]
    return report


def main(argv=None):
    """CLI: ``silolint [--json] [--select SLxxx[,SLyyy]] PATH...``.

    Exit status: 0 clean, 1 violations found, 2 unreadable input.
    """
    import argparse
    parser = argparse.ArgumentParser(
        prog="silolint",
        description="Simulator-specific lint rules for the SILO "
                    "reproduction (see repro.verify.lint).")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default: src/repro)")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to report "
                             "(default: all of %s)"
                             % ",".join(sorted(RULES)))
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        for code in sorted(RULES):
            print("%s  %s" % (code, RULES[code]))
        return 0
    select = None
    if args.select:
        select = [c.strip().upper() for c in args.select.split(",")
                  if c.strip()]
        unknown = [c for c in select if c not in RULES]
        if unknown:
            parser.error("unknown rule code(s): %s" % ",".join(unknown))
    paths = args.paths or ["src/repro"]
    report = lint_paths(paths, select=select)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        rendered = report.render()
        if rendered:
            print(rendered)
        print("silolint: %d file(s), %d violation(s), %d suppressed%s%s"
              % (report.files_scanned, len(report.violations),
                 report.suppressed_total(),
                 ", %d resolved interprocedurally"
                 % report.interproc_resolved
                 if report.interproc_resolved else "",
                 ", %d error(s)" % len(report.errors)
                 if report.errors else ""))
    if report.errors:
        return 2
    return 1 if report.violations else 0


if __name__ == "__main__":
    sys.exit(main())
