"""Module-level program index and call graph for whole-program lints.

The per-file rules in :mod:`repro.verify.lint` cannot see a wall-clock
value cross a call boundary; the flow analysis
(:mod:`repro.verify.flow`) can, and this module gives it the three
structures it needs:

* a **program index** (:class:`ProgramIndex`): every module under the
  analyzed roots parsed once, with its import map (local alias ->
  fully-qualified name), top-level functions, classes and methods;
* a **call graph** over qualified function names
  (``module::Class.method`` / ``module::func``), resolved through
  import maps, ``self.method`` dispatch through the class hierarchy
  (:class:`ClassHierarchy`) and -- for plain ``obj.attr()`` calls --
  bounded method-name candidate sets;
* **strongly connected components** (iterative Tarjan) in bottom-up
  (reverse topological) order, so interprocedural summaries can be
  computed callees-first with a fixpoint only inside each SCC.

Everything here is plain ``ast``-level analysis: no imports of the
analyzed code are performed, so broken or heavyweight modules cost
nothing beyond parsing.
"""

import ast
import os

#: Method names that are never resolved to in-program candidates: they
#: are overwhelmingly stdlib/container calls (``d.get``, ``l.append``)
#: and resolving them to same-named simulator methods would wire the
#: call graph to noise.
GENERIC_METHOD_NAMES = frozenset((
    "get", "put", "set", "add", "append", "extend", "pop", "popleft",
    "insert", "remove", "discard", "clear", "update", "setdefault",
    "keys", "values", "items", "copy", "sort", "reverse", "index",
    "count", "join", "split", "strip", "lstrip", "rstrip", "replace",
    "format", "encode", "decode", "startswith", "endswith", "lower",
    "upper", "read", "write", "close", "flush", "seek", "tolist",
    "astype", "reshape", "sum", "mean", "min", "max", "fromkeys",
))

#: An ``obj.method()`` call with more in-program candidates than this
#: is left unresolved (treated as a conservative pass-through by the
#: flow analysis) rather than fanning out across the whole program.
MAX_METHOD_CANDIDATES = 5


class FunctionInfo:
    """One indexed function or method."""

    __slots__ = ("qname", "module", "name", "class_name", "params",
                 "lineno", "file", "node", "is_method")

    def __init__(self, qname, module, name, class_name, params, lineno,
                 file, node):
        self.qname = qname
        self.module = module
        self.name = name
        self.class_name = class_name
        self.params = params
        self.lineno = lineno
        self.file = file
        self.node = node
        self.is_method = class_name is not None

    def __repr__(self):
        return "<FunctionInfo %s>" % self.qname


class ModuleInfo:
    """One parsed module: dotted name, import map, defs."""

    def __init__(self, module, file, tree, source):
        self.module = module
        self.file = file
        self.tree = tree
        self.source = source
        self.lines = source.splitlines()
        #: local alias -> fully-qualified dotted name ("os",
        #: "repro.params.L1_LATENCY", ...).
        self.imports = {}
        #: modules this module imports (dotted names).
        self.imported_modules = set()
        #: class name -> {method name -> qname}.
        self.classes = {}
        #: class name -> dotted names of its bases ("module.Class").
        self.class_bases = {}
        #: qname -> FunctionInfo (functions and methods).
        self.functions = {}
        #: module-level names bound to local function defs.
        self.local_functions = {}
        self._index()

    # -- indexing ------------------------------------------------------

    def _index(self):
        self._collect_imports(self.tree)
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._add_function(node, class_name=None)
                self.local_functions[node.name] = info.qname
            elif isinstance(node, ast.ClassDef):
                methods = {}
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        info = self._add_function(item,
                                                  class_name=node.name)
                        methods[item.name] = info.qname
                self.classes[node.name] = methods
        # Bases resolve once every class of the module is known.
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                names = (self.dotted_name(b) for b in node.bases)
                self.class_bases[node.name] = [
                    "%s.%s" % (self.module, name) if name in self.classes
                    else self.resolve(name) for name in names if name]

    def _add_function(self, node, class_name):
        name = (node.name if class_name is None
                else "%s.%s" % (class_name, node.name))
        qname = "%s::%s" % (self.module, name)
        args = node.args
        params = ([a.arg for a in args.posonlyargs]
                  + [a.arg for a in args.args]
                  + [a.arg for a in args.kwonlyargs])
        info = FunctionInfo(qname, self.module, node.name, class_name,
                            params, node.lineno, self.file, node)
        self.functions[qname] = info
        return info

    def _collect_imports(self, tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (alias.name if alias.asname
                              else alias.name.split(".")[0])
                    self.imports[local] = target
                    self.imported_modules.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                if base is None:
                    continue
                self.imported_modules.add(base)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = (
                        "%s.%s" % (base, alias.name))

    def _resolve_from(self, node):
        """Absolute dotted base of a ``from X import Y`` (handles
        relative imports against this module's own name)."""
        if node.level == 0:
            return node.module
        parts = self.module.split(".")
        if node.level > len(parts):
            return node.module
        base_parts = parts[:len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(p for p in base_parts if p) or None

    # -- name resolution -----------------------------------------------

    def dotted_name(self, node):
        """``a.b.c`` as a string for Name/Attribute chains, else None."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    def resolve(self, dotted):
        """Fully-qualified form of a dotted reference: the longest
        import-map prefix is substituted; a bare local function name
        resolves to its qname; otherwise the dotted text itself."""
        if dotted is None:
            return None
        head, sep, rest = dotted.partition(".")
        if not sep and head in self.local_functions:
            return self.local_functions[head]
        if head in self.imports:
            full = self.imports[head]
            return full + (("." + rest) if rest else "")
        return dotted


def module_name_for(path, roots):
    """Dotted module name of ``path``.

    If a ``repro`` package directory appears on the path, the name is
    anchored there (``repro.sim.driver``); otherwise it is the
    ``/``-to-``.`` relative path under the nearest analysis root, so
    fixture trees get predictable names too.
    """
    norm = os.path.normpath(os.path.abspath(path))
    parts = norm.split(os.sep)
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if "repro" in parts[:-1]:
        idx = len(parts) - 1 - parts[:-1][::-1].index("repro") - 1
        mod_parts = parts[idx:-1] + [stem]
        if stem == "__init__":
            mod_parts = mod_parts[:-1]
        return ".".join(mod_parts)
    for root in roots:
        root_norm = os.path.normpath(os.path.abspath(root))
        if norm.startswith(root_norm + os.sep):
            rel = os.path.relpath(norm, root_norm)
            rel_parts = rel.split(os.sep)
            rel_parts[-1] = stem
            if rel_parts[-1] == "__init__":
                rel_parts = rel_parts[:-1]
            if rel_parts:
                return ".".join(rel_parts)
    return stem


class ClassHierarchy:
    """The analyzed program's classes (``module.Class``) with their
    methods and bases, for resolving ``self.m()`` calls.  A base from
    outside the analyzed set ends the walk."""

    def __init__(self):
        self.methods = {}       # "module.Class" -> {method: qname}
        self.bases = {}         # "module.Class" -> ["module.Base", ...]
        self.subclasses = {}    # "module.Class" -> ["module.Sub", ...]

    def add_class(self, cls, bases, methods):
        self.methods[cls] = methods
        self.bases[cls] = bases
        for base in bases:
            self.subclasses.setdefault(base, []).append(cls)

    def self_call_targets(self, cls, name):
        """Qnames ``self.<name>()`` in a method of ``cls`` may reach:
        the nearest definition in ``cls`` or its bases (depth first,
        left to right), plus every override in classes derived from
        ``cls``."""
        out = []
        seen = set()
        up = [cls]
        while up:
            c = up.pop()
            if c not in seen:
                seen.add(c)
                if name in self.methods.get(c, ()):
                    out.append(self.methods[c][name])
                    break
                up.extend(reversed(self.bases.get(c, ())))
        seen = {cls}
        down = list(self.subclasses.get(cls, ()))
        while down:
            c = down.pop()
            if c not in seen:
                seen.add(c)
                if name in self.methods[c]:
                    out.append(self.methods[c][name])
                down.extend(self.subclasses.get(c, ()))
        return out


class ProgramIndex:
    """Every module under the analyzed roots, cross-indexed."""

    def __init__(self):
        self.modules = {}        # dotted name -> ModuleInfo
        self.functions = {}      # qname -> FunctionInfo
        self.methods_by_name = {}  # method name -> [qname, ...]
        self.files = {}          # abspath -> ModuleInfo
        self.hierarchy = ClassHierarchy()

    def add_module(self, info):
        self.modules[info.module] = info
        self.files[os.path.abspath(info.file)] = info
        for qname, fn in info.functions.items():
            self.functions[qname] = fn
            if fn.is_method:
                self.methods_by_name.setdefault(fn.name, []).append(qname)
        for name, methods in info.classes.items():
            self.hierarchy.add_class("%s.%s" % (info.module, name),
                                     info.class_bases[name], methods)

    def function_for_qualified(self, resolved):
        """FunctionInfo for a resolved dotted reference, or None.

        Accepts both qname form (``module::func``) and plain dotted
        form (``repro.params.ns_to_cycles``,
        ``repro.sim.engine.RunRequest.key``).
        """
        if resolved is None:
            return None
        if "::" in resolved:
            return self.functions.get(resolved)
        # module.func or module.Class.method: split at every point.
        parts = resolved.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            info = self.modules.get(mod)
            if info is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                return self.functions.get("%s::%s" % (mod, rest[0]))
            if len(rest) == 2:
                return self.functions.get(
                    "%s::%s.%s" % (mod, rest[0], rest[1]))
        return None

    def method_candidates(self, name):
        """Bounded candidate set for an ``obj.<name>()`` call."""
        if name in GENERIC_METHOD_NAMES or name.startswith("__"):
            return []
        cands = self.methods_by_name.get(name, [])
        if len(cands) > MAX_METHOD_CANDIDATES:
            return []
        return cands


def iter_python_files(paths):
    """Yield every ``.py`` file under ``paths`` deterministically."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        elif path.endswith(".py") or os.path.isfile(path):
            yield path


def index_paths(paths, errors=None):
    """Parse and index every Python file under ``paths``.

    Unparseable files are recorded into ``errors`` (a list of
    ``(path, message)``) when given, else skipped.
    """
    index = ProgramIndex()
    roots = list(paths)
    for path in iter_python_files(paths):
        try:
            with open(path, encoding="utf-8") as f:
                source = f.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError, ValueError) as e:
            if errors is not None:
                errors.append((path, str(e)))
            continue
        module = module_name_for(path, roots)
        index.add_module(ModuleInfo(module, path, tree, source))
    return index


# ---------------------------------------------------------------------------
# call graph
# ---------------------------------------------------------------------------


def _callee_qnames(index, minfo, fn, node):
    """Qnames an ``ast.Call`` may dispatch to, best effort."""
    func = node.func
    if isinstance(func, ast.Name):
        resolved = minfo.resolve(func.id)
        target = index.function_for_qualified(resolved)
        if target is not None:
            return [target.qname]
        # Bare class name: constructor -> __init__ if indexed.
        if func.id in minfo.classes:
            init = minfo.classes[func.id].get("__init__")
            return [init] if init else []
        return []
    if isinstance(func, ast.Attribute):
        # self.method() inside a class resolves through the hierarchy.
        if (isinstance(func.value, ast.Name) and func.value.id == "self"
                and fn.class_name is not None):
            targets = index.hierarchy.self_call_targets(
                "%s.%s" % (minfo.module, fn.class_name), func.attr)
            if targets:
                return targets
        dotted = minfo.dotted_name(func)
        if dotted is not None:
            target = index.function_for_qualified(minfo.resolve(dotted))
            if target is not None:
                return [target.qname]
        return index.method_candidates(func.attr)
    return []


def build_call_graph(index):
    """``{caller qname: set(callee qnames)}`` over the whole index."""
    graph = {}
    for minfo in index.modules.values():
        for qname, fn in minfo.functions.items():
            callees = graph.setdefault(qname, set())
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    callees.update(
                        _callee_qnames(index, minfo, fn, node))
    return graph


def tarjan_sccs(graph):
    """Strongly connected components of ``graph`` (``{node: iterable
    of successors}``), returned in reverse-topological (bottom-up)
    order: every edge leaving an SCC points to an *earlier* SCC in the
    result.  Iterative, so deep call chains cannot blow the stack.
    """
    sccs = []
    counter = [0]
    index_of = {}
    low = {}
    on_stack = set()
    stack = []

    for start in sorted(graph):
        if start in index_of:
            continue
        work = [(start, iter(sorted(graph.get(start, ()))))]
        index_of[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, succs = work[-1]
            advanced = False
            for succ in succs:
                if succ not in graph and succ not in index_of:
                    continue
                if succ not in index_of:
                    index_of[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph.get(succ,
                                                             ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(sorted(scc))
    return sccs


def scc_order(graph):
    """Bottom-up processing order of functions: callees before
    callers, SCC members adjacent."""
    order = []
    for scc in tarjan_sccs(graph):
        order.extend(scc)
    return order
