"""Whole-program determinism-taint and unit-consistency analysis.

``python -m repro.verify flow`` runs two analysis families that the
per-file rules in :mod:`repro.verify.lint` cannot express because they
require seeing a value *cross a call*:

* **SL010 -- determinism taint to a replay observable.**  Every
  headline capability since PR 3 (content-addressed ``RunCache``
  replay, the drive loop's bit-exact inline L1-hit probe, splitmix64
  fault nesting, observability inertness) rests on one invariant: a run
  is a pure function of its :class:`~repro.sim.engine.RunRequest`.  This
  pass marks nondeterminism *sources* -- wall clock (``time.*`` and
  the sanctioned ``repro.obs.profile.clock``), unseeded ``random.*``,
  ``os.environ`` / ``os.urandom``, ``id()`` / ``hash()`` -- and
  propagates them through assignments, attributes, and function calls
  (interprocedurally, over the call graph of
  :mod:`repro.verify.callgraph`, processed bottom-up in SCC order)
  into *replay-observable sinks*: stats-counter mutations, simulated
  clock-advance expressions in ``sim.driver``,
  ``RunRequest.canonical()`` / ``key()`` results, ``RunSummary`` /
  ``CoreSummary`` fields, and manifest payloads.  A source->sink path
  not cut by a *sanctioned sanitizer* (a seeded ``random.Random``, the
  splitmix64 streams of :mod:`repro.faults.injector`) is a finding.
  Wall clock into *manifest* payloads is exempt by design: manifests
  are provenance records and document their own wall clocks.
* **SL011 -- unsanctioned sanitizer.**  A function can declare itself
  a taint barrier with a ``# silolint: sanitizer`` pragma on its
  ``def`` line; the pragma only takes effect when the function is also
  listed in :data:`SANCTIONED_SANITIZERS` here (which code review
  owns).  A pragma outside the registry is a finding: laundering taint
  must not be a one-line local edit.
* **SL012 -- unit consistency** (see :mod:`repro.verify.units`): the
  declarative unit table in :mod:`repro.params` is propagated through
  arithmetic; mixed-unit ``+``/``-``/comparisons and unit-dropping
  returns are findings, and conversions (``cycles * NS_PER_CYCLE``)
  pass silently because the algebra makes them explicit.

The pass is incremental: per-file extraction results (a serializable
taint IR, unit findings and suppression tables) are cached keyed by
each file's sha256, so a warm rerun only re-hashes sources and re-runs
the (cheap) interprocedural solve.  Pre-existing findings live in a
checked-in *baseline* (``tools/flow-baseline.json``) where every entry
carries a one-line justification; only non-baselined findings fail the
``verify-static`` CI job.  Output formats: human, ``--json`` and SARIF
2.1.0 (``--sarif``) for code-scanning upload.
"""

import ast
import hashlib
import json
import os
import sys

from repro.verify import callgraph as _cg
from repro.verify import units as _units
from repro.verify.lint import (_is_counter_name, _suppressions,
                               _file_suppressions)

#: Flow-analysis rule registry (the lint pass owns SL001-SL008).
FLOW_RULES = {
    "SL010": "determinism taint reaches a replay-observable sink "
             "(stats counter, sim clock advance, RunRequest key, "
             "RunSummary field, manifest payload)",
    "SL011": "sanitizer pragma on a function outside the "
             "sanctioned-sanitizer registry",
    "SL012": "mixed or dropped units in repro.params-derived "
             "arithmetic",
}

#: Functions whose return value is a sanctioned taint barrier: calls
#: resolve to *clean* regardless of argument taint.  Code review owns
#: this list; a ``# silolint: sanitizer`` pragma on any function not
#: listed here is an SL011 finding.  (A seeded ``random.Random(seed)``
#: is sanctioned structurally and needs no entry.)
SANCTIONED_SANITIZERS = frozenset((
    # splitmix64 output function: deterministic counter-based streams
    # (repro.faults) are the sanctioned way to derive per-site
    # randomness from a plan seed.
    "repro.faults.injector._mix",
))

#: time.* functions that read a wall clock (mirrors lint SL008).
_WALLCLOCK_FNS = frozenset((
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns", "time.clock_gettime",
    "time.clock_gettime_ns",
    # The sanctioned simulator clock is still a wall clock: SL008
    # blesses *which* clock simulator code may read, the flow pass
    # polices *where the value is allowed to go*.
    "repro.obs.profile.clock",
))

_RANDOM_MODULE_FNS = frozenset(
    "random." + name for name in (
        "random", "randrange", "randint", "choice", "choices",
        "shuffle", "sample", "uniform", "gauss", "normalvariate",
        "lognormvariate", "expovariate", "betavariate", "gammavariate",
        "paretovariate", "triangular", "vonmisesvariate",
        "weibullvariate", "seed", "getrandbits", "randbytes"))

#: Packages whose counter mutations are replay observables.
_STATS_SINK_DIRS = frozenset(("sim", "caches", "coherence", "noc",
                              "memory", "dram", "cores", "energy",
                              "faults"))

#: Modules whose ``t`` / ``times[...]`` assignments advance the
#: simulated clock (the bit-identity-critical expressions).
_CLOCK_ADVANCE_MODULES = frozenset(("repro.sim.driver",))

#: Constructors whose fields are replayed bit-identically from cache.
_SUMMARY_CTORS = frozenset(("RunSummary", "CoreSummary"))

_SANITIZER_PRAGMA = "# silolint: sanitizer"

#: Bump to invalidate every cached extraction (IR shape or rule
#: semantics changed).
_CACHE_VERSION = 1

DEFAULT_BASELINE = os.path.join("tools", "flow-baseline.json")
DEFAULT_CACHE_FILE = os.path.join(".silolint-cache", "flow.json")

_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                 "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


# ---------------------------------------------------------------------------
# per-file extraction: source -> taint IR
# ---------------------------------------------------------------------------


class _Extractor:
    """Builds the serializable taint IR of one function (or of a
    module's top-level code, treated as a zero-parameter pseudo
    function)."""

    def __init__(self, minfo, fnq, params, class_name, path_parts):
        self.minfo = minfo
        self.fnq = fnq
        self.class_name = class_name
        self.in_stats_scope = bool(_STATS_SINK_DIRS & path_parts)
        self.in_clock_scope = minfo.module in _CLOCK_ADVANCE_MODULES
        self.is_manifest_fn = fnq.rsplit(".", 1)[-1] == "manifest"
        self.is_key_fn = (minfo.module == "repro.sim.engine"
                          and fnq.rsplit(".", 1)[-1] in ("canonical",
                                                         "key"))
        self.param_tokens = {name: "P:%s:%d" % (fnq, i)
                             for i, name in enumerate(params)}
        self.locals = set()
        self._call_n = 0
        self.ir = {"qname": fnq, "file": minfo.file,
                   "module": minfo.module,
                   "symbol": fnq.split("::", 1)[-1],
                   "params": list(params), "edges": [],
                   "sources": [], "sinks": [], "calls": [],
                   "sanitizer_pragma": False, "line": 0}

    # -- token helpers -------------------------------------------------

    def _local_token(self, name):
        if name in self.param_tokens:
            return self.param_tokens[name]
        if self.fnq.endswith("::<module>"):
            return "G:%s:%s" % (self.minfo.module, name)
        return "L:%s:%s" % (self.fnq, name)

    def _edge(self, srcs, dst):
        for src in srcs:
            self.ir["edges"].append([src, dst])

    def _source(self, kind, node):
        token = "SRC:%s:%s:%d" % (kind, self.minfo.module, node.lineno)
        self.ir["sources"].append(
            {"token": token, "kind": kind, "line": node.lineno,
             "symbol": self.ir["symbol"]})
        return token

    def _sink(self, kind, node, detail, deps):
        if deps:
            self.ir["sinks"].append(
                {"kind": kind, "line": node.lineno,
                 "col": node.col_offset, "detail": detail,
                 "deps": sorted(deps)})

    # -- expression dependencies ---------------------------------------

    def deps(self, node):
        """Set of taint tokens the value of ``node`` depends on."""
        if node is None or isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Name):
            if (node.id in self.param_tokens or node.id in self.locals
                    or node.id == "self"):
                return {self._local_token(node.id)}
            resolved = self.minfo.resolve(node.id)
            if resolved == node.id and node.id not in self.minfo.imports:
                # Unimported bare name: a module global of this module
                # (or a builtin, which stays inert).
                return {"G:%s:%s" % (self.minfo.module, node.id)}
            return {"D:%s" % resolved}
        if isinstance(node, ast.Attribute):
            dotted = self.minfo.dotted_name(node)
            if dotted is not None:
                head = dotted.split(".", 1)[0]
                if head == "self" and self.class_name is not None:
                    attr = dotted.split(".")[1]
                    return {"A:%s::%s.%s" % (self.minfo.module,
                                             self.class_name, attr),
                            "AN:%s" % attr}
                if head in self.minfo.imports:
                    resolved = self.minfo.resolve(dotted)
                    if resolved.startswith("os.environ"):
                        return {self._source("env", node)}
                    return {"D:%s" % resolved}
            # Field-sensitive by attribute name: an ``obj.attr`` read
            # taps only the global ``AN:attr`` channel, so object-level
            # taint (a constructor that saw one tainted kwarg) does not
            # smear across every unrelated field of the object.  The
            # base expression is still walked for its own sources and
            # calls.
            self.deps(node.value)
            return {"AN:%s" % node.attr}
        if isinstance(node, ast.Subscript):
            dotted = self.minfo.dotted_name(node.value)
            if dotted is not None \
                    and self.minfo.resolve(dotted).startswith(
                        "os.environ"):
                return {self._source("env", node)}
            return self.deps(node.value) | self.deps(node.slice)
        if isinstance(node, ast.Call):
            return self._call_deps(node)
        if isinstance(node, ast.BinOp):
            return self.deps(node.left) | self.deps(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.deps(node.operand)
        if isinstance(node, ast.BoolOp):
            out = set()
            for v in node.values:
                out |= self.deps(v)
            return out
        if isinstance(node, ast.Compare):
            out = self.deps(node.left)
            for c in node.comparators:
                out |= self.deps(c)
            return out
        if isinstance(node, ast.IfExp):
            return (self.deps(node.body) | self.deps(node.orelse)
                    | self.deps(node.test))
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for elt in node.elts:
                out |= self.deps(elt)
            return out
        if isinstance(node, ast.Dict):
            out = set()
            for k, v in zip(node.keys, node.values):
                out |= self.deps(k) | self.deps(v)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            out = set()
            for gen in node.generators:
                out |= self.deps(gen.iter)
            if isinstance(node, ast.DictComp):
                out |= self.deps(node.key) | self.deps(node.value)
            else:
                out |= self.deps(node.elt)
            return out
        if isinstance(node, ast.Starred):
            return self.deps(node.value)
        if isinstance(node, ast.Lambda):
            return self.deps(node.body)
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            out = set()
            for child in ast.iter_child_nodes(node):
                out |= self.deps(child)
            return out
        if isinstance(node, ast.NamedExpr):
            out = self.deps(node.value)
            if isinstance(node.target, ast.Name):
                self.locals.add(node.target.id)
                self._edge(out, self._local_token(node.target.id))
            return out
        if isinstance(node, ast.Await):
            return self.deps(node.value)
        return set()

    def _call_deps(self, node):
        func = node.func
        dotted = self.minfo.dotted_name(func)
        resolved = self.minfo.resolve(dotted) if dotted else None

        # Nondeterminism sources.
        if resolved in _WALLCLOCK_FNS:
            return {self._source("wallclock", node)}
        if resolved in _RANDOM_MODULE_FNS \
                or resolved == "random.SystemRandom":
            return {self._source("rng", node)}
        if resolved == "random.Random":
            if node.args or node.keywords:
                return set()        # seeded: sanctioned sanitizer
            return {self._source("rng", node)}
        if resolved in ("os.getenv", "os.urandom") \
                or (resolved or "").startswith("os.environ"):
            return {self._source("env", node)}
        if resolved in ("id", "hash") and len(node.args) == 1:
            return {self._source("ident", node)}

        # Sanctioned sanitizers cut every path through them.
        if resolved is not None:
            plain = resolved.replace("::", ".")
            if plain in SANCTIONED_SANITIZERS:
                return set()

        arg_deps = [sorted(self.deps(a)) for a in node.args]
        kwarg_deps = {kw.arg: sorted(self.deps(kw.value))
                      for kw in node.keywords if kw.arg is not None}
        for kw in node.keywords:
            if kw.arg is None:      # **kwargs expansion
                kwarg_deps.setdefault("**", []).extend(
                    sorted(self.deps(kw.value)))
        recv = []
        target = None
        attr = None
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if (isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and self.class_name is not None
                    and func.attr in self.minfo.classes.get(
                        self.class_name, {})):
                target = "%s.%s.%s" % (self.minfo.module,
                                       self.class_name, func.attr)
                recv = [self._local_token("self")]
            elif resolved is not None and "." in (dotted or ""):
                target = resolved.replace("::", ".")
                recv = sorted(self.deps(func.value))
            else:
                recv = sorted(self.deps(func.value))
        elif resolved is not None:
            target = resolved.replace("::", ".")
        self._call_n += 1
        result = "C:%s:%d" % (self.fnq, self._call_n)
        self.ir["calls"].append(
            {"target": target, "attr": attr, "recv": recv,
             "args": arg_deps, "kwargs": kwarg_deps, "result": result,
             "line": node.lineno})

        # Replay-observable sinks carried by calls.
        if self.in_stats_scope and attr in ("incr", "record") \
                and arg_deps:
            self._sink("stats", node, ".%s()" % attr,
                       set(arg_deps[0]))
        if attr in _SUMMARY_CTORS or (target or "").split(".")[-1] in \
                _SUMMARY_CTORS or (dotted in _SUMMARY_CTORS):
            ctor = dotted if dotted in _SUMMARY_CTORS \
                else (target or attr)
            for name, ds in kwarg_deps.items():
                self._sink("summary", node,
                           "%s(%s=...)" % (ctor, name), set(ds))
        if self.is_manifest_fn:
            for kw in node.keywords:
                pass                # dict(...) manifests unused here
        return {result}

    # -- statements ----------------------------------------------------

    def assign_target(self, target, deps, node):
        if isinstance(target, ast.Name):
            self.locals.add(target.id)
            self._edge(deps, self._local_token(target.id))
            if self.in_clock_scope and target.id == "t":
                self._sink("clock-advance", node, "t = ...", deps)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign_target(elt, deps, node)
        elif isinstance(target, ast.Attribute):
            dotted = self.minfo.dotted_name(target)
            if dotted and dotted.split(".")[0] == "self" \
                    and self.class_name is not None:
                attr = dotted.split(".")[1]
                tok = "A:%s::%s.%s" % (self.minfo.module,
                                       self.class_name, attr)
                self._edge(deps, tok)
                self._edge(deps, "AN:%s" % attr)
            else:
                self._edge(deps, "AN:%s" % target.attr)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                if self.in_clock_scope and base.id == "times":
                    self._sink("clock-advance", node, "times[...] = ...",
                               deps)
                if base.id in self.locals \
                        or base.id in self.param_tokens:
                    self._edge(deps, self._local_token(base.id))
            if self.is_manifest_fn:
                self._sink("manifest", node, "payload[...]", deps)

    def statement(self, node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if value is None:
                return
            deps = self.deps(value)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if isinstance(node, ast.AugAssign):
                target = node.target
                if (self.in_stats_scope
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and _is_counter_name(target.attr)):
                    self._sink("stats", node,
                               "self.%s += ..." % target.attr, deps)
                if self.in_clock_scope \
                        and isinstance(target, ast.Name) \
                        and target.id == "t":
                    self._sink("clock-advance", node, "t += ...", deps)
            for target in targets:
                self.assign_target(target, deps, node)
            if self.is_manifest_fn and isinstance(value, ast.Dict):
                for k, v in zip(value.keys, value.values):
                    key = (k.value if isinstance(k, ast.Constant)
                           else "...")
                    self._sink("manifest", v, "payload[%r]" % key,
                               self.deps(v))
        elif isinstance(node, ast.Return):
            if node.value is not None:
                deps = self.deps(node.value)
                self._edge(deps, "R:%s" % self.fnq)
                if self.is_key_fn:
                    self._sink("request-key", node,
                               "%s()" % self.ir["symbol"], deps)
                if self.is_manifest_fn \
                        and isinstance(node.value, ast.Dict):
                    for k, v in zip(node.value.keys, node.value.values):
                        key = (k.value if isinstance(k, ast.Constant)
                               else "...")
                        self._sink("manifest", v, "payload[%r]" % key,
                                   self.deps(v))
        elif isinstance(node, ast.Expr):
            self.deps(node.value)
        elif isinstance(node, (ast.If, ast.While)):
            self.deps(node.test)
            for child in node.body + node.orelse:
                self.statement(child)
        elif isinstance(node, ast.For):
            self.assign_target(node.target, self.deps(node.iter), node)
            for child in node.body + node.orelse:
                self.statement(child)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                deps = self.deps(item.context_expr)
                if item.optional_vars is not None:
                    self.assign_target(item.optional_vars, deps, node)
            for child in node.body:
                self.statement(child)
        elif isinstance(node, ast.Try):
            for child in (node.body + node.orelse + node.finalbody):
                self.statement(child)
            for handler in node.handlers:
                for child in handler.body:
                    self.statement(child)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs are folded into the enclosing function:
            # their locals and returns over-approximate into ours.
            for arg in (node.args.posonlyargs + node.args.args
                        + node.args.kwonlyargs):
                self.locals.add(arg.arg)
            for child in node.body:
                self.statement(child)
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                self.statement(child)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.deps(child)


def _has_sanitizer_pragma(minfo, node):
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    for lineno in (node.lineno, first - 1):
        if 0 < lineno <= len(minfo.lines):
            if _SANITIZER_PRAGMA in minfo.lines[lineno - 1]:
                return True
    return False


def extract_module(minfo):
    """The serializable taint IR of one module: one record per
    function plus one for top-level code."""
    path_parts = frozenset(
        os.path.normpath(os.path.abspath(minfo.file))
        .split(os.sep)[:-1])
    irs = []
    for qname, fn in minfo.functions.items():
        ex = _Extractor(minfo, qname, fn.params, fn.class_name,
                        path_parts)
        ex.ir["line"] = fn.lineno
        ex.ir["sanitizer_pragma"] = _has_sanitizer_pragma(minfo, fn.node)
        for stmt in fn.node.body:
            ex.statement(stmt)
        irs.append(ex.ir)
    top = _Extractor(minfo, "%s::<module>" % minfo.module, [], None,
                     path_parts)
    top.ir["line"] = 1
    for stmt in minfo.tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            top.statement(stmt)
    irs.append(top.ir)
    return irs


# ---------------------------------------------------------------------------
# interprocedural solve
# ---------------------------------------------------------------------------


class _Solver:
    """Links the per-function IRs into one token graph and floods
    taint from sources to sinks, callees-first (SCC order)."""

    def __init__(self, irs):
        self.irs = irs
        self.by_qname = {ir["qname"]: ir for ir in irs}
        self.modules = {ir["module"] for ir in irs}
        self.dotted = {}            # "mod.Class.meth"/"mod.fn" -> qname
        self.methods = {}           # method name -> [qname, ...]
        for ir in irs:
            symbol = ir["symbol"]
            if symbol == "<module>":
                continue
            self.dotted["%s.%s" % (ir["module"], symbol)] = ir["qname"]
            if "." in symbol:
                self.methods.setdefault(
                    symbol.rsplit(".", 1)[-1], []).append(ir["qname"])
        self.adj = {}
        self.sources = {}           # token -> descriptor
        self.pred = {}
        self.call_edges = 0
        self._build()

    def _norm(self, token):
        """Alias ``D:`` dotted references onto their defining module's
        global token when the module is in the analyzed set."""
        if not token.startswith("D:"):
            return token
        dotted = token[2:]
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            if mod in self.modules:
                return "G:%s:%s" % (mod, ".".join(parts[cut:]))
        return token

    def _edge(self, src, dst):
        src, dst = self._norm(src), self._norm(dst)
        if src != dst:
            self.adj.setdefault(src, set()).add(dst)

    def _resolve_call_targets(self, call):
        target = call["target"]
        if target is not None:
            qname = self.dotted.get(target)
            if qname is None and "::" in target.replace(".", "::", 0):
                qname = self.by_qname.get(target)
            if qname is not None:
                return [qname]
            return []
        attr = call["attr"]
        if attr is None or attr in _cg.GENERIC_METHOD_NAMES \
                or attr.startswith("__"):
            return []
        cands = self.methods.get(attr, [])
        if 0 < len(cands) <= _cg.MAX_METHOD_CANDIDATES:
            return cands
        return []

    def _link_call(self, ir, call):
        targets = self._resolve_call_targets(call)
        result = call["result"]
        if not targets:
            # Unresolved (stdlib / constructor / dynamic): value flows
            # straight through from receiver and arguments, and each
            # kwarg additionally binds its field-name channel -- the
            # dataclass-constructor pattern (``RunResult(wall_s=t)``
            # followed by ``r.wall_s`` elsewhere).
            for dep in call["recv"]:
                self._edge(dep, result)
            for ds in call["args"]:
                for dep in ds:
                    self._edge(dep, result)
            for name, ds in call["kwargs"].items():
                for dep in ds:
                    self._edge(dep, result)
                    if name != "**":
                        self._edge(dep, "AN:%s" % name)
            return
        for qname in targets:
            callee = self.by_qname[qname]
            params = callee["params"]
            offset = 1 if (params and params[0] in ("self", "cls")
                           and (call["recv"] or call["attr"]
                                or "." in callee["symbol"])) else 0
            for dep in call["recv"]:
                if params:
                    self._edge(dep, "P:%s:0" % qname)
            for i, ds in enumerate(call["args"]):
                idx = i + offset
                if idx < len(params):
                    for dep in ds:
                        self._edge(dep, "P:%s:%d" % (qname, idx))
            for name, ds in call["kwargs"].items():
                if name in params:
                    idx = params.index(name)
                    for dep in ds:
                        self._edge(dep, "P:%s:%d" % (qname, idx))
                else:
                    for dep in ds:
                        self._edge(dep, result)
            self._edge("R:%s" % qname, result)
            self.call_edges += 1

    def _build(self):
        for ir in self.irs:
            for src, dst in ir["edges"]:
                self._edge(src, dst)
            for source in ir["sources"]:
                self.sources[source["token"]] = {
                    "kind": source["kind"], "module": ir["module"],
                    "file": ir["file"], "line": source["line"],
                    "symbol": source["symbol"]}
            for call in ir["calls"]:
                self._link_call(ir, call)

    def solve(self):
        """``{token: {source token, ...}}`` by worklist flooding."""
        taint = {}
        work = []
        for token, desc in self.sources.items():
            taint[token] = {token}
            work.append(token)
        while work:
            token = work.pop()
            here = taint[token]
            for succ in self.adj.get(token, ()):
                cur = taint.setdefault(succ, set())
                new = here - cur
                if new:
                    cur |= new
                    for src in new:
                        self.pred.setdefault((succ, src), token)
                    work.append(succ)
        return taint

    def witness(self, sink_dep, src_token, limit=12):
        """Function-level chain from the source to the sink dep."""
        chain = []
        token = sink_dep
        while token is not None and len(chain) < limit:
            fnq = _token_owner(token)
            if fnq and (not chain or chain[-1] != fnq):
                chain.append(fnq)
            if token == src_token:
                break
            token = self.pred.get((token, src_token))
        return list(reversed(chain))


def _token_owner(token):
    """Owning function (qname) of a token, best effort."""
    if token.startswith(("L:", "P:", "C:")):
        body = token.split(":", 1)[1]
        return body.rsplit(":", 1)[0]
    if token.startswith("R:"):
        return token[2:]
    if token.startswith("SRC:"):
        return None
    return None


# ---------------------------------------------------------------------------
# findings, baseline, report
# ---------------------------------------------------------------------------


def _fingerprint(rule, rel_file, symbol, detail, source):
    """Location-drift-stable identity of a finding: no line numbers,
    only the symbols and source kind involved."""
    blob = "|".join((rule, rel_file, symbol, detail,
                     source.get("kind", ""), source.get("module", ""),
                     source.get("symbol", "")))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class Finding(dict):
    """One flow finding (a dict, so JSON-ready as-is)."""

    @property
    def sort_key(self):
        return (self["file"], self["line"], self["col"], self["rule"],
                self["message"])


class FlowReport:
    """Aggregated result of one flow run."""

    def __init__(self):
        self.findings = []          # non-baselined
        self.baselined = []
        self.stale_baseline = []    # baseline entries with no finding
        self.suppressed = 0
        self.errors = []
        self.files_scanned = 0
        self.stats = {}

    @property
    def ok(self):
        return not self.findings and not self.errors

    def counts(self):
        out = {}
        for f in self.findings:
            out[f["rule"]] = out.get(f["rule"], 0) + 1
        return out

    def as_dict(self):
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "counts": self.counts(),
            "rules": dict(FLOW_RULES),
            "findings": list(self.findings),
            "baselined": len(self.baselined),
            "suppressed": self.suppressed,
            "stale_baseline": list(self.stale_baseline),
            "errors": [{"file": p, "message": m}
                       for p, m in self.errors],
            "stats": dict(self.stats),
        }

    def render(self):
        lines = []
        for f in self.findings:
            lines.append("%s:%d:%d: %s %s"
                         % (f["file"], f["line"], f["col"], f["rule"],
                            f["message"]))
            if f.get("trace"):
                lines.append("    flow: %s" % " -> ".join(f["trace"]))
        for entry in self.stale_baseline:
            lines.append("stale baseline entry %s (%s in %s): remove it"
                         % (entry["fingerprint"], entry["rule"],
                            entry["file"]))
        lines.extend("%s: error: %s" % e for e in self.errors)
        return "\n".join(lines)

    def to_sarif(self):
        """SARIF 2.1.0 document (code-scanning upload format)."""
        rules = [{"id": code,
                  "shortDescription": {"text": FLOW_RULES[code]}}
                 for code in sorted(FLOW_RULES)]
        results = []
        for f in list(self.findings) + list(self.baselined):
            result = {
                "ruleId": f["rule"],
                "level": "error",
                "message": {"text": f["message"]},
                "partialFingerprints": {
                    "silolintFlow/v1": f["fingerprint"]},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f["file"].replace(os.sep, "/")},
                        "region": {"startLine": f["line"],
                                   "startColumn": f["col"] + 1},
                    }}],
            }
            if f.get("baselined"):
                result["level"] = "note"
                result["suppressions"] = [{
                    "kind": "external",
                    "justification": f.get("justification", "")}]
            results.append(result)
        return {
            "$schema": _SARIF_SCHEMA,
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {
                    "name": "silolint-flow",
                    "informationUri":
                        "https://example.invalid/repro.verify.flow",
                    "rules": rules}},
                "results": results,
            }],
        }


def load_baseline(path):
    """Baseline entries by fingerprint; {} when the file is absent."""
    if path is None or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return {e["fingerprint"]: e for e in doc.get("entries", [])}


def write_baseline(path, findings, previous=None):
    """Serialize ``findings`` as a baseline, carrying forward the
    justifications of entries already present in ``previous``."""
    previous = previous or {}
    entries = []
    seen = set()
    for f in sorted(findings, key=lambda f: f.sort_key):
        fp = f["fingerprint"]
        if fp in seen:
            continue
        seen.add(fp)
        old = previous.get(fp, {})
        entries.append({
            "fingerprint": fp,
            "rule": f["rule"],
            "file": f["file"],
            "symbol": f["symbol"],
            "message": f["message"],
            "justification": old.get("justification",
                                     "TODO: justify or fix"),
        })
    doc = {"version": 1, "entries": entries}
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return doc


# ---------------------------------------------------------------------------
# incremental cache
# ---------------------------------------------------------------------------


def _table_hash():
    from repro import params
    blob = json.dumps([sorted(getattr(params, "UNITS", {}).items()),
                       sorted(getattr(params, "UNIT_FUNCTIONS",
                                      {}).items()),
                       sorted(SANCTIONED_SANITIZERS),
                       _CACHE_VERSION], default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _load_cache(path):
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    if doc.get("table_hash") != _table_hash():
        return None
    return doc


def _save_cache(path, doc):
    if path is None:
        return
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        os.replace(tmp, path)
    except OSError:
        pass                        # a cache must never fail the run


# ---------------------------------------------------------------------------
# the analysis driver
# ---------------------------------------------------------------------------


def _relpath(path, base):
    try:
        rel = os.path.relpath(os.path.abspath(path), base)
    except ValueError:
        return path
    return path if rel.startswith("..") else rel


def analyze(paths, baseline_path=None, cache_file=None, select=None,
            repo_root=None):
    """Run the full flow analysis; returns a :class:`FlowReport`.

    ``baseline_path`` suppresses known findings (entries are matched by
    drift-stable fingerprint; unmatched entries surface as stale);
    ``cache_file`` enables the per-file incremental cache; ``select``
    restricts reported rules.
    """
    from repro.obs.profile import clock
    t0 = clock()
    repo_root = os.path.abspath(repo_root or os.getcwd())
    report = FlowReport()
    cache = _load_cache(cache_file)
    cached_files = (cache or {}).get("files", {})
    new_cache = {"table_hash": _table_hash(), "files": {}}
    unit_table = _units.UnitTable.from_params()

    irs = []
    raw_findings = []               # SL011 + SL012, per file
    suppress = {}                   # abspath -> (file_codes, {line: codes})
    cache_hits = cache_misses = 0

    for path in _cg.iter_python_files(paths):
        abspath = os.path.abspath(path)
        try:
            with open(abspath, "rb") as f:
                blob = f.read()
        except OSError as e:
            report.errors.append((path, str(e)))
            continue
        sha = hashlib.sha256(blob).hexdigest()
        entry = cached_files.get(abspath)
        if entry is not None and entry.get("sha256") == sha:
            cache_hits += 1
        else:
            cache_misses += 1
            try:
                source = blob.decode("utf-8")
                tree = ast.parse(source, filename=abspath)
            except (SyntaxError, ValueError) as e:
                report.errors.append((path, str(e)))
                continue
            module = _cg.module_name_for(abspath, list(paths))
            minfo = _cg.ModuleInfo(module, abspath, tree, source)
            lines = minfo.lines
            entry = {
                "sha256": sha,
                "ir": extract_module(minfo),
                "unit_findings": _units.check_module(minfo, unit_table),
                "suppress": {
                    "file": sorted(_file_suppressions(lines)),
                    "lines": {
                        str(i + 1): sorted(_suppressions(line))
                        for i, line in enumerate(lines)
                        if _suppressions(line)},
                },
            }
        new_cache["files"][abspath] = entry
        report.files_scanned += 1
        irs.extend(entry["ir"])
        for uf in entry["unit_findings"]:
            raw_findings.append(dict(uf, file=abspath))
        sup = entry["suppress"]
        suppress[abspath] = (frozenset(sup["file"]),
                             {int(k): frozenset(v)
                              for k, v in sup["lines"].items()})

    # SL011: sanitizer pragmas outside the registry.
    for ir in irs:
        if ir["sanitizer_pragma"]:
            plain = ir["qname"].replace("::", ".")
            if plain not in SANCTIONED_SANITIZERS:
                raw_findings.append({
                    "rule": "SL011", "file": ir["file"],
                    "line": ir["line"], "col": 0,
                    "symbol": ir["symbol"],
                    "message": "sanitizer pragma on %s, which is not "
                               "in SANCTIONED_SANITIZERS (register it "
                               "with a justification, or remove the "
                               "pragma)" % plain,
                })

    # SL010: flood the token graph.
    solver = _Solver(irs)
    taint = solver.solve()
    callgraph = {ir["qname"]: set() for ir in irs}
    for ir in irs:
        for call in ir["calls"]:
            callgraph[ir["qname"]].update(
                solver._resolve_call_targets(call))
    sccs = _cg.tarjan_sccs(callgraph)
    seen_findings = set()
    for ir in irs:
        for sink in ir["sinks"]:
            for dep in sink["deps"]:
                dep_n = solver._norm(dep)
                for src_token in sorted(taint.get(dep_n, ())):
                    source = solver.sources[src_token]
                    if sink["kind"] == "manifest" \
                            and source["kind"] == "wallclock":
                        continue    # provenance records wall clocks
                    dedupe = (ir["file"], sink["line"], sink["detail"],
                              src_token)
                    if dedupe in seen_findings:
                        continue
                    seen_findings.add(dedupe)
                    message = ("%s taint reaches %s sink %s "
                               "(source: %s in %s, %s:%d)"
                               % (source["kind"], sink["kind"],
                                  sink["detail"], source["kind"],
                                  source["symbol"],
                                  _relpath(source["file"], repo_root),
                                  source["line"]))
                    raw_findings.append({
                        "rule": "SL010", "file": ir["file"],
                        "line": sink["line"], "col": sink["col"],
                        "symbol": ir["symbol"],
                        "message": message,
                        "sink": sink["kind"],
                        "source": {"kind": source["kind"],
                                   "file": _relpath(source["file"],
                                                    repo_root),
                                   "line": source["line"],
                                   "symbol": source["symbol"],
                                   "module": source["module"]},
                        "trace": [q.split("::", 1)[-1] + " [" +
                                  q.split("::", 1)[0] + "]"
                                  for q in solver.witness(dep_n,
                                                          src_token)],
                    })

    # Suppressions, selection, baseline.
    baseline = load_baseline(baseline_path)
    matched = set()
    chosen = frozenset(select) if select else None
    for raw in raw_findings:
        rule = raw["rule"]
        if chosen is not None and rule not in chosen:
            continue
        abspath = os.path.abspath(raw["file"])
        file_codes, line_codes = suppress.get(abspath,
                                              (frozenset(), {}))
        disabled = file_codes | line_codes.get(raw["line"], frozenset())
        if "all" in disabled or rule in disabled:
            report.suppressed += 1
            continue
        rel = _relpath(raw["file"], repo_root)
        source = raw.get("source", {})
        finding = Finding(raw, file=rel)
        finding["fingerprint"] = _fingerprint(
            rule, rel, raw.get("symbol", ""),
            raw.get("sink", raw["message"].split("(")[0].strip()),
            source)
        entry = baseline.get(finding["fingerprint"])
        if entry is not None:
            matched.add(finding["fingerprint"])
            finding["baselined"] = True
            finding["justification"] = entry.get("justification", "")
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    report.stale_baseline = [
        entry for fp, entry in sorted(baseline.items())
        if fp not in matched]
    report.findings.sort(key=lambda f: f.sort_key)
    report.baselined.sort(key=lambda f: f.sort_key)

    _save_cache(cache_file, new_cache)
    report.stats = {
        "functions": len(irs),
        "call_edges": solver.call_edges,
        "sccs": len(sccs),
        "largest_scc": max((len(s) for s in sccs), default=0),
        "graph_tokens": len(solver.adj),
        "tainted_tokens": len(taint),
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "elapsed_s": clock() - t0,
    }
    return report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv=None):
    """CLI: ``flow [paths] [--json] [--sarif F] [--baseline F]
    [--write-baseline] [--no-cache] [--cache-file F] [--select CODES]
    [--list-rules]``.

    Exit status: 0 clean (baselined findings do not fail), 1
    non-baselined findings, 2 unreadable input.
    """
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify flow",
        description="Whole-program determinism-taint and "
                    "unit-consistency analysis "
                    "(see repro.verify.flow).")
    parser.add_argument("paths", nargs="*", default=["src/repro"])
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    parser.add_argument("--sarif", metavar="FILE", default=None,
                        help="also write a SARIF 2.1.0 report")
    parser.add_argument("--baseline", metavar="FILE",
                        default=DEFAULT_BASELINE,
                        help="baseline file of justified pre-existing "
                             "findings (default: %(default)s when it "
                             "exists)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline (report everything)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from the current "
                             "findings (keeps existing justifications)")
    parser.add_argument("--cache-file", metavar="FILE",
                        default=DEFAULT_CACHE_FILE,
                        help="incremental extraction cache "
                             "(default: %(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the incremental cache")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to report")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(FLOW_RULES):
            print("%s  %s" % (code, FLOW_RULES[code]))
        return 0
    select = None
    if args.select:
        select = [c.strip().upper() for c in args.select.split(",")
                  if c.strip()]
        unknown = [c for c in select if c not in FLOW_RULES]
        if unknown:
            parser.error("unknown rule code(s): %s" % ",".join(unknown))
    paths = args.paths or ["src/repro"]
    baseline_path = None if args.no_baseline else args.baseline
    cache_file = None if args.no_cache else args.cache_file

    if args.write_baseline:
        report = analyze(paths, baseline_path=None,
                         cache_file=cache_file, select=select)
        previous = load_baseline(baseline_path)
        doc = write_baseline(args.baseline, report.findings, previous)
        print("flow: wrote %d baseline entr%s to %s"
              % (len(doc["entries"]),
                 "y" if len(doc["entries"]) == 1 else "ies",
                 args.baseline))
        todo = [e for e in doc["entries"]
                if e["justification"].startswith("TODO")]
        if todo:
            print("flow: %d entr%s still need%s a justification"
                  % (len(todo), "y" if len(todo) == 1 else "ies",
                     "s" if len(todo) == 1 else ""))
        return 0 if not report.errors else 2

    report = analyze(paths, baseline_path=baseline_path,
                     cache_file=cache_file, select=select)
    if args.sarif:
        os.makedirs(os.path.dirname(args.sarif) or ".", exist_ok=True)
        with open(args.sarif, "w", encoding="utf-8") as f:
            json.dump(report.to_sarif(), f, indent=2)
            f.write("\n")
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        rendered = report.render()
        if rendered:
            print(rendered)
        print("flow: %d file(s), %d function(s), %d finding(s), "
              "%d baselined, %d suppressed%s [%.2fs, cache %d/%d]"
              % (report.files_scanned, report.stats.get("functions", 0),
                 len(report.findings), len(report.baselined),
                 report.suppressed,
                 ", %d error(s)" % len(report.errors)
                 if report.errors else "",
                 report.stats.get("elapsed_s", 0.0),
                 report.stats.get("cache_hits", 0),
                 report.stats.get("cache_hits", 0)
                 + report.stats.get("cache_misses", 0)))
    if report.errors:
        return 2
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
