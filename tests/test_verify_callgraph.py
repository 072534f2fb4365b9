"""Call-graph and SCC machinery behind the flow analysis.

Covers module naming, import-map resolution, call-graph construction
(direct calls, ``self.method`` dispatch, bounded method candidates),
and the iterative Tarjan SCC decomposition the interprocedural solver
orders its work by.
"""

import os

from repro.verify.callgraph import (GENERIC_METHOD_NAMES,
                                    build_call_graph, index_paths,
                                    module_name_for, scc_order,
                                    tarjan_sccs)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


# ---------------------------------------------------------------------------
# module naming and import resolution
# ---------------------------------------------------------------------------


def test_module_name_anchors_at_repro_package():
    path = os.path.join(REPO, "src", "repro", "sim", "driver.py")
    assert module_name_for(path, [os.path.join(REPO, "src", "repro")]) \
        == "repro.sim.driver"


def test_module_name_relative_to_root_for_fixtures(tmp_path):
    path = _write(tmp_path, "pkg/mod.py", "x = 1\n")
    assert module_name_for(str(path), [str(tmp_path)]) == "pkg.mod"


def test_module_name_strips_dunder_init(tmp_path):
    path = _write(tmp_path, "pkg/__init__.py", "")
    assert module_name_for(str(path), [str(tmp_path)]) == "pkg"


def test_import_map_resolves_aliases(tmp_path):
    _write(tmp_path, "mod.py",
           "import os\n"
           "import os.path as op\n"
           "from helper import tick as t\n")
    index = index_paths([str(tmp_path)])
    minfo = index.modules["mod"]
    assert minfo.resolve("os.environ") == "os.environ"
    assert minfo.resolve("op.join") == "os.path.join"
    assert minfo.resolve("t") == "helper.tick"


def test_resolve_prefers_local_function(tmp_path):
    _write(tmp_path, "mod.py", "def tick():\n    return 1\n")
    index = index_paths([str(tmp_path)])
    assert index.modules["mod"].resolve("tick") == "mod::tick"


def test_function_for_qualified_accepts_dotted_method(tmp_path):
    _write(tmp_path, "mod.py",
           "class C:\n"
           "    def run(self):\n"
           "        return 0\n")
    index = index_paths([str(tmp_path)])
    fn = index.function_for_qualified("mod.C.run")
    assert fn is not None and fn.qname == "mod::C.run"


# ---------------------------------------------------------------------------
# call graph
# ---------------------------------------------------------------------------


def test_call_graph_direct_and_cross_module(tmp_path):
    _write(tmp_path, "helper.py", "def tick():\n    return 1\n")
    _write(tmp_path, "mod.py",
           "from helper import tick\n"
           "def run():\n"
           "    return tick()\n")
    graph = build_call_graph(index_paths([str(tmp_path)]))
    assert graph["mod::run"] == {"helper::tick"}


def test_call_graph_self_method_dispatch(tmp_path):
    _write(tmp_path, "mod.py",
           "class C:\n"
           "    def a(self):\n"
           "        return self.b()\n"
           "    def b(self):\n"
           "        return 0\n")
    graph = build_call_graph(index_paths([str(tmp_path)]))
    assert graph["mod::C.a"] == {"mod::C.b"}


def test_call_graph_self_dispatch_through_hierarchy(tmp_path):
    # An unrelated class shares both method names, so a match on the
    # name alone would wire in Other's methods as well.
    _write(tmp_path, "base.py",
           "class Base:\n"
           "    def run(self):\n"
           "        return self.step()\n"
           "    def helper(self):\n"
           "        return 0\n"
           "class Other:\n"
           "    def step(self):\n"
           "        return 1\n"
           "    def helper(self):\n"
           "        return 1\n")
    _write(tmp_path, "mod.py",
           "from base import Base\n"
           "class A(Base):\n"
           "    def step(self):\n"
           "        return self.helper()\n"
           "class B(Base):\n"
           "    def step(self):\n"
           "        return 2\n"
           "    def helper(self):\n"
           "        return 2\n")
    graph = build_call_graph(index_paths([str(tmp_path)]))
    # base -> every subclass override; subclass -> inherited helper
    assert graph["base::Base.run"] == {"mod::A.step", "mod::B.step"}
    assert graph["mod::A.step"] == {"base::Base.helper"}


def test_call_graph_method_candidates_are_bounded(tmp_path):
    # Seven classes define .step(): above MAX_METHOD_CANDIDATES, the
    # call stays unresolved rather than fanning out to all of them.
    defs = "\n".join("class C%d:\n    def step(self):\n        return 0"
                     % i for i in range(7))
    _write(tmp_path, "many.py", defs + "\n")
    _write(tmp_path, "mod.py", "def run(obj):\n    return obj.step()\n")
    graph = build_call_graph(index_paths([str(tmp_path)]))
    assert graph["mod::run"] == set()


def test_call_graph_skips_generic_method_names(tmp_path):
    assert "append" in GENERIC_METHOD_NAMES
    _write(tmp_path, "mod.py",
           "class Box:\n"
           "    def append(self, x):\n"
           "        return x\n"
           "def run(items):\n"
           "    items.append(1)\n")
    graph = build_call_graph(index_paths([str(tmp_path)]))
    assert graph["mod::run"] == set()


# ---------------------------------------------------------------------------
# SCCs
# ---------------------------------------------------------------------------


def test_sccs_bottom_up_order():
    graph = {"a": {"b"}, "b": {"c"}, "c": set()}
    sccs = tarjan_sccs(graph)
    assert sccs == [["c"], ["b"], ["a"]]


def test_sccs_group_cycles():
    graph = {"a": {"b"}, "b": {"a"}, "c": {"a"}}
    sccs = tarjan_sccs(graph)
    assert ["a", "b"] in sccs
    assert sccs.index(["a", "b"]) < sccs.index(["c"])


def test_scc_order_flattens_bottom_up():
    graph = {"a": {"b"}, "b": set()}
    assert scc_order(graph) == ["b", "a"]


def test_sccs_iterative_on_deep_chain():
    # A 5000-deep call chain: a recursive Tarjan would blow the
    # interpreter stack; the iterative one must not.
    n = 5000
    graph = {i: {i + 1} for i in range(n)}
    graph[n] = set()
    sccs = tarjan_sccs(graph)
    assert len(sccs) == n + 1
    assert sccs[0] == [n]
    assert sccs[-1] == [0]


def test_sccs_ignore_edges_to_unindexed_nodes():
    graph = {"a": {"ghost"}}
    assert tarjan_sccs(graph) == [["a"]]
