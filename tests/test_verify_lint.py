"""silolint rule fixtures: each rule fires on its positive example,
stays quiet on the compliant variant, and honors line suppressions.

Plus: every seeded defect of ``tools/seeded_bugs.py`` that a rule
claims, planted in a copy of its one file, trips that rule; the JSON
report schema, CLI exit codes, and the acceptance gate that the
repository's own ``src/repro`` tree lints clean.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.verify.lint import ENV_READERS, RULES, lint_paths, main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO, "src", "repro")


def _load_campaign():
    spec = importlib.util.spec_from_file_location(
        "seeded_bugs", os.path.join(REPO, "tools", "seeded_bugs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CAMPAIGN = _load_campaign()


def _lint_source(tmp_path, source, subdir=None, name="fixture.py"):
    """Write ``source`` under tmp_path (optionally in a scoping subdir
    like 'caches') and lint it."""
    directory = tmp_path if subdir is None else tmp_path / subdir
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(source)
    return lint_paths([str(path)])


def _codes(report):
    return [v.rule for v in report.violations]


# ---------------------------------------------------------------------------
# SL002: counters in modules with no stats reset
# ---------------------------------------------------------------------------

_SL002_BODY = (
    "class Thing:\n"
    "    def __init__(self):\n"
    "        self.hits = 0\n"
    "    def touch(self):\n"
    "        self.hits += 1\n")


def test_sl002_flags_unregistered_counter(tmp_path):
    report = _lint_source(tmp_path, _SL002_BODY)
    assert _codes(report) == ["SL002"]
    assert "self.hits" in report.violations[0].message


def test_sl002_quiet_when_module_defines_reset_stats(tmp_path):
    report = _lint_source(tmp_path, _SL002_BODY + (
        "    def reset_stats(self):\n"
        "        self.hits = 0\n"))
    assert report.ok


def test_sl002_quiet_when_module_imports_repro_obs(tmp_path):
    report = _lint_source(
        tmp_path, "from repro.obs import stats\n" + _SL002_BODY)
    assert report.ok


def test_sl002_ignores_non_counter_attrs(tmp_path):
    report = _lint_source(tmp_path, (
        "class Walker:\n"
        "    def step(self):\n"
        "        self.cursor += 1\n"))
    assert report.ok


def test_sl002_suppression(tmp_path):
    report = _lint_source(tmp_path, _SL002_BODY.replace(
        "self.hits += 1",
        "self.hits += 1  # silolint: disable=SL002"))
    assert report.ok


# ---------------------------------------------------------------------------
# SL003: hard-coded latency/size constants (scoped to sim/caches/...)
# ---------------------------------------------------------------------------


def test_sl003_flags_literal_latency_in_caches_dir(tmp_path):
    report = _lint_source(tmp_path, "bank_latency = 23\n",
                          subdir="caches")
    assert _codes(report) == ["SL003"]


def test_sl003_flags_literal_default_argument(tmp_path):
    report = _lint_source(
        tmp_path, "def build(hop_latency=3):\n    return hop_latency\n",
        subdir="noc")
    assert _codes(report) == ["SL003"]


def test_sl003_flags_literal_keyword_argument(tmp_path):
    report = _lint_source(
        tmp_path,
        "def make(cache):\n    return cache(size_bytes=8192)\n",
        subdir="sim")
    assert _codes(report) == ["SL003"]


def test_sl003_quiet_outside_scoped_dirs(tmp_path):
    report = _lint_source(tmp_path, "bank_latency = 23\n")
    assert report.ok


def test_sl003_quiet_when_value_comes_from_params(tmp_path):
    report = _lint_source(
        tmp_path,
        "from repro.params import LLC_LATENCY\n"
        "bank_latency = LLC_LATENCY\n",
        subdir="caches")
    assert report.ok


def test_sl003_allows_zero_and_one(tmp_path):
    report = _lint_source(tmp_path, "extra_latency = 0\n",
                          subdir="caches")
    assert report.ok


def test_sl003_suppression(tmp_path):
    report = _lint_source(
        tmp_path, "bank_latency = 23  # silolint: disable=SL003\n",
        subdir="caches")
    assert report.ok


# ---------------------------------------------------------------------------
# SL004: set iteration in timing code
# ---------------------------------------------------------------------------


def test_sl004_flags_set_iteration_in_timing_dir(tmp_path):
    report = _lint_source(
        tmp_path,
        "def drain(pending):\n"
        "    for req in set(pending):\n"
        "        req.serve()\n",
        subdir="coherence")
    assert _codes(report) == ["SL004"]


def test_sl004_flags_set_iteration_in_workloads_dir(tmp_path):
    # the trace generator's loop order decides trace content
    report = _lint_source(
        tmp_path,
        "def prewarm(regions):\n"
        "    for region in set(regions):\n"
        "        yield region.base\n",
        subdir="workloads")
    assert _codes(report) == ["SL004"]


def test_sl004_flags_set_comprehension_source(tmp_path):
    report = _lint_source(
        tmp_path,
        "def tags(ways):\n"
        "    return [w.tag for w in {w for w in ways}]\n",
        subdir="caches")
    assert _codes(report) == ["SL004"]


def test_sl004_quiet_on_sorted_iteration(tmp_path):
    report = _lint_source(
        tmp_path,
        "def drain(pending):\n"
        "    for req in sorted(set(pending)):\n"
        "        req.serve()\n",
        subdir="coherence")
    assert report.ok


def test_sl004_quiet_outside_timing_dirs(tmp_path):
    report = _lint_source(
        tmp_path,
        "def names(items):\n"
        "    for x in set(items):\n"
        "        print(x)\n")
    assert report.ok


def test_sl004_suppression(tmp_path):
    report = _lint_source(
        tmp_path,
        "def drain(pending):\n"
        "    for req in set(pending):  # silolint: disable=SL004\n"
        "        req.serve()\n",
        subdir="noc")
    assert report.ok


# ---------------------------------------------------------------------------
# SL005: float equality in timing code
# ---------------------------------------------------------------------------


def test_sl005_flags_float_equality(tmp_path):
    report = _lint_source(
        tmp_path,
        "def ready(clock):\n"
        "    return clock == 1.5\n",
        subdir="memory")
    assert _codes(report) == ["SL005"]


def test_sl005_quiet_on_int_equality(tmp_path):
    report = _lint_source(
        tmp_path,
        "def ready(clock):\n"
        "    return clock == 3\n",
        subdir="memory")
    assert report.ok


def test_sl005_quiet_outside_timing_dirs(tmp_path):
    report = _lint_source(tmp_path, "x = 1.0\nassert x == 1.0\n")
    assert report.ok


def test_sl005_suppression(tmp_path):
    report = _lint_source(
        tmp_path,
        "def ready(clock):\n"
        "    return clock != 0.5  # silolint: disable=all\n",
        subdir="sim")
    assert report.ok


# ---------------------------------------------------------------------------
# SL006: module-level mutable state in process-fan-out scope
# ---------------------------------------------------------------------------


def test_sl006_flags_empty_dict_in_sim_dir(tmp_path):
    report = _lint_source(tmp_path, "_SEEN = {}\n", subdir="sim")
    assert _codes(report) == ["SL006"]
    assert "_SEEN" in report.violations[0].message


def test_sl006_flags_empty_list_in_caches_dir(tmp_path):
    report = _lint_source(tmp_path, "pending = []\n", subdir="caches")
    assert _codes(report) == ["SL006"]


def test_sl006_flags_mutable_constructor_call(tmp_path):
    report = _lint_source(
        tmp_path,
        "from collections import defaultdict\n"
        "counts = defaultdict(int)\n",
        subdir="sim")
    assert _codes(report) == ["SL006"]


def test_sl006_quiet_on_populated_literal_table(tmp_path):
    report = _lint_source(
        tmp_path, "PRESETS = {'quick': (1, 2), 'full': (3, 4)}\n",
        subdir="sim")
    assert report.ok


def test_sl006_quiet_on_function_local_state(tmp_path):
    report = _lint_source(
        tmp_path,
        "def run():\n"
        "    seen = {}\n"
        "    return seen\n",
        subdir="sim")
    assert report.ok


def test_sl006_quiet_outside_fanout_dirs(tmp_path):
    report = _lint_source(tmp_path, "_CACHE = {}\n", subdir="workloads")
    assert report.ok


def test_sl006_suppression(tmp_path):
    report = _lint_source(
        tmp_path, "_SEEN = {}  # silolint: disable=SL006\n",
        subdir="caches")
    assert report.ok


# ---------------------------------------------------------------------------
# Report plumbing: JSON schema, sorting, errors, CLI
# ---------------------------------------------------------------------------


def test_json_report_schema(tmp_path):
    (tmp_path / "a.py").write_text("import time\ntime.time()\n")
    report = lint_paths([str(tmp_path)])
    data = report.as_dict()
    assert data["version"] == 3
    assert data["files_scanned"] == 1
    assert data["counts"] == {"SL008": 1}
    assert data["errors"] == []
    assert data["rules"] == RULES
    assert data["suppressed"] == {"total": 0, "counts": {}}
    assert set(data) == {"version", "files_scanned", "counts", "rules",
                         "violations", "suppressed", "errors"}
    (v,) = data["violations"]
    assert set(v) == {"file", "line", "col", "rule", "message"}
    assert v["rule"] == "SL008"
    assert v["line"] == 2
    json.dumps(data)  # must be JSON-serializable as-is


def test_json_report_counts_suppressions(tmp_path):
    (tmp_path / "a.py").write_text(
        "import time\n"
        "x = time.time()  # silolint: disable=SL008\n"
        "y = time.time()\n")
    report = lint_paths([str(tmp_path)])
    assert _codes(report) == ["SL008"]
    data = report.as_dict()
    assert data["suppressed"] == {"total": 1, "counts": {"SL008": 1}}


def test_disable_file_pragma_suppresses_whole_file(tmp_path):
    (tmp_path / "a.py").write_text(
        "# silolint: disable-file=SL008\n"
        "import time\n"
        "x = time.time()\n"
        "y = time.time()\n")
    report = lint_paths([str(tmp_path)])
    assert report.ok
    assert report.suppressed_counts == {"SL008": 2}


def test_disable_file_pragma_is_per_rule(tmp_path):
    (tmp_path / "caches").mkdir()
    (tmp_path / "caches" / "m.py").write_text(
        "# silolint: disable-file=SL003\n"
        "import time\n"
        "bank_latency = 23\n"
        "x = time.time()\n")
    report = lint_paths([str(tmp_path)])
    assert _codes(report) == ["SL008"]
    assert report.suppressed_counts == {"SL003": 1}


def test_violations_sorted_by_location(tmp_path):
    (tmp_path / "b.py").write_text("import time\nx = time.time()\n")
    (tmp_path / "a.py").write_text("import time\ny = time.time()\n")
    report = lint_paths([str(tmp_path)])
    files = [os.path.basename(v.file) for v in report.violations]
    assert files == sorted(files)


def test_syntax_error_reported_not_raised(tmp_path):
    (tmp_path / "bad.py").write_text("def broken(:\n")
    report = lint_paths([str(tmp_path)])
    assert not report.ok
    assert report.errors and "bad.py" in report.errors[0][0]


def test_select_restricts_rules(tmp_path):
    (tmp_path / "caches").mkdir()
    (tmp_path / "caches" / "m.py").write_text(
        "import time\nbank_latency = 23\nx = time.time()\n")
    report = lint_paths([str(tmp_path)], select=["SL003"])
    assert _codes(report) == ["SL003"]


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nx = time.time()\n")
    assert main([str(clean)]) == 0
    assert main([str(dirty)]) == 1
    assert main([str(tmp_path / "missing.py")]) == 2
    out = capsys.readouterr().out
    assert "SL008" in out


def test_cli_json_output(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nx = time.time()\n")
    assert main(["--json", str(dirty)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["counts"] == {"SL008": 1}


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


def test_rule_catalogue_is_complete():
    assert sorted(RULES) == ["SL002", "SL003", "SL004", "SL005", "SL006",
                             "SL007", "SL008", "SL009", "SL010"]


# ---------------------------------------------------------------------------
# SL002 is per file: a helper's counter is flagged whoever calls it
# ---------------------------------------------------------------------------

_SL002_HELPER = (
    "class Tally:\n"
    "    def bump(self):\n"
    "        self.hits += 1\n")


def test_sl002_stays_when_caller_lacks_registry(tmp_path):
    (tmp_path / "helper.py").write_text(_SL002_HELPER)
    (tmp_path / "owner.py").write_text(
        "from helper import Tally\n"
        "def run(t):\n"
        "    t.bump()\n")
    report = lint_paths([str(tmp_path)])
    assert _codes(report) == ["SL002"]


def test_sl002_stays_with_no_callers_at_all(tmp_path):
    (tmp_path / "helper.py").write_text(_SL002_HELPER)
    report = lint_paths([str(tmp_path)])
    assert _codes(report) == ["SL002"]


# ---------------------------------------------------------------------------
# SL007: per-event work in hotpath-marked functions
# ---------------------------------------------------------------------------


HOT_LOOP = (
    "# silolint: hotpath\n"
    "def drive(events, out):\n"
    "    for ev in events:\n"
    "%s"
    "    return out\n")


def test_sl007_flags_constructor_call_in_loop(tmp_path):
    report = _lint_source(tmp_path, HOT_LOOP % (
        "        out.append(list(ev))\n"))
    assert _codes(report) == ["SL007"]


def test_sl007_flags_container_display_in_loop(tmp_path):
    report = _lint_source(tmp_path, HOT_LOOP % (
        "        out.append({\"ev\": ev})\n"))
    assert _codes(report) == ["SL007"]


def test_sl007_flags_comprehension_in_loop(tmp_path):
    report = _lint_source(tmp_path, HOT_LOOP % (
        "        out.append([x + 1 for x in ev])\n"))
    # the comprehension, not also its internal parts
    assert _codes(report) == ["SL007"]


def test_sl007_flags_attribute_chain_in_loop(tmp_path):
    report = _lint_source(tmp_path, HOT_LOOP % (
        "        out.total += ev.core.stats\n"))
    assert _codes(report) == ["SL007"]
    assert "ev.core.stats" in report.violations[0].message


def test_sl007_chain_flagged_once_not_per_link(tmp_path):
    report = _lint_source(tmp_path, HOT_LOOP % (
        "        out.total += ev.a.b.c\n"))
    assert _codes(report) == ["SL007"]


def test_sl007_loop_free_hot_function_checks_whole_body(tmp_path):
    report = _lint_source(tmp_path, (
        "# silolint: hotpath\n"
        "def classify(ev):\n"
        "    return {\"kind\": ev}\n"))
    assert _codes(report) == ["SL007"]


def test_sl007_ignores_prelude_outside_the_loops(tmp_path):
    report = _lint_source(tmp_path, (
        "# silolint: hotpath\n"
        "def drive(system, events):\n"
        "    out = []\n"
        "    access = system.cores.access\n"
        "    for ev in events:\n"
        "        out.append(access(ev))\n"
        "    return out\n"))
    assert report.ok, report.render()


def test_sl007_quiet_without_hotpath_marker(tmp_path):
    report = _lint_source(tmp_path, (
        "def drive(events, out):\n"
        "    for ev in events:\n"
        "        out.append(list(ev))\n"
        "    return out\n"))
    assert report.ok, report.render()


def test_sl007_marker_on_def_line(tmp_path):
    report = _lint_source(tmp_path, (
        "def drive(events, out):  # silolint: hotpath\n"
        "    for ev in events:\n"
        "        out.append(list(ev))\n"
        "    return out\n"))
    assert _codes(report) == ["SL007"]


def test_sl007_suppression(tmp_path):
    report = _lint_source(tmp_path, HOT_LOOP % (
        "        out.append(list(ev))  # silolint: disable=SL007\n"))
    assert report.ok, report.render()


# ---------------------------------------------------------------------------
# SL008: raw wall-clock calls in simulator code
# ---------------------------------------------------------------------------


def test_sl008_flags_perf_counter_in_sim(tmp_path):
    report = _lint_source(tmp_path, (
        "import time\n"
        "def run():\n"
        "    t0 = time.perf_counter()\n"
        "    return time.perf_counter() - t0\n"), subdir="sim")
    assert _codes(report) == ["SL008", "SL008"]
    assert "repro.obs.profile.clock" in report.violations[0].message


def test_sl008_flags_time_time_in_caches(tmp_path):
    report = _lint_source(tmp_path, (
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"), subdir="caches")
    assert _codes(report) == ["SL008"]


def test_sl008_flags_from_import_alias(tmp_path):
    report = _lint_source(tmp_path, (
        "from time import monotonic as now\n"
        "def stamp():\n"
        "    return now()\n"), subdir="noc")
    assert _codes(report) == ["SL008"]
    assert "monotonic" in report.violations[0].message


def test_sl008_flags_clock_default_in_memory(tmp_path):
    # every package but repro.obs and repro.experiments is in scope:
    # a model that defaults its time to the wall clock is flagged
    report = _lint_source(tmp_path, (
        "import time\n"
        "def access(block, now=None):\n"
        "    if now is None:\n"
        "        now = time.perf_counter()\n"
        "    return now\n"), subdir="repro/memory")
    assert _codes(report) == ["SL008"]


def test_sl008_quiet_outside_simulator_scope(tmp_path):
    # experiments/ may read wall clock freely (CLI elapsed time)
    report = _lint_source(tmp_path, (
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"), subdir="experiments")
    assert report.ok, report.render()


def test_sl008_quiet_in_obs_package(tmp_path):
    # repro.obs owns the sanctioned clock -- it must be exempt even
    # when an ``obs`` package sits inside a wall-clock-scoped tree
    report = _lint_source(tmp_path, (
        "import time\n"
        "clock = time.perf_counter\n"
        "def wall():\n"
        "    return time.perf_counter()\n"), subdir="sim/obs")
    assert report.ok, report.render()


def test_scope_ignores_directories_above_the_repro_package(tmp_path):
    # a checkout kept under ~/experiments/ (or obs/, sim/) is scoped by
    # the packages below its innermost ``repro`` directory only
    source = (
        "import time\n"
        "def stamp(pending):\n"
        "    for block in set(pending):\n"
        "        yield block\n"
        "    return time.time()\n")
    report = _lint_source(tmp_path / "a", source,
                          subdir="experiments/obs/silo/src/repro/sim")
    assert _codes(report) == ["SL004", "SL008"]
    report = _lint_source(tmp_path / "b", source,
                          subdir="sim/silo/src/repro/experiments")
    assert report.ok, report.render()


def test_sl008_quiet_on_sanctioned_clock(tmp_path):
    report = _lint_source(tmp_path, (
        "from repro.obs.profile import clock\n"
        "def run():\n"
        "    t0 = clock()\n"
        "    return clock() - t0\n"), subdir="sim")
    assert report.ok, report.render()


def test_sl008_quiet_on_non_clock_time_functions(tmp_path):
    report = _lint_source(tmp_path, (
        "import time\n"
        "def nap():\n"
        "    time.sleep(0.1)\n"), subdir="coherence")
    assert report.ok, report.render()


def test_sl008_suppression(tmp_path):
    report = _lint_source(tmp_path, (
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # silolint: disable=SL008\n"),
        subdir="sim")
    assert report.ok, report.render()


# ---------------------------------------------------------------------------
# SL009: blocking calls inside async defs in the serving layer
# ---------------------------------------------------------------------------


def test_sl009_flags_blocking_calls_in_async_def(tmp_path):
    report = _lint_source(tmp_path, (
        "import subprocess\n"
        "import time\n"
        "async def handle(sock):\n"
        "    time.sleep(0.1)\n"
        "    data = sock.recv(4096)\n"
        "    subprocess.run(['true'])\n"
        "    open('/tmp/x')\n"), subdir="serve")
    assert _codes(report) == ["SL009"] * 4
    assert "time.sleep" in report.violations[0].message
    assert ".recv()" in report.violations[1].message


def test_sl009_quiet_on_awaited_calls(tmp_path):
    report = _lint_source(tmp_path, (
        "async def handle(reader, writer):\n"
        "    data = await reader.readexactly(4)\n"
        "    await writer.drain()\n"
        "    return data\n"), subdir="serve")
    assert report.ok, report.render()


def test_sl009_quiet_in_nested_sync_def(tmp_path):
    # A plain def nested inside an async def runs in an executor thread
    # by convention -- blocking there is the whole point.
    report = _lint_source(tmp_path, (
        "import time\n"
        "async def handle():\n"
        "    def work():\n"
        "        time.sleep(0.1)\n"
        "        return open('/tmp/x')\n"
        "    return work\n"), subdir="serve")
    assert report.ok, report.render()


def test_sl009_quiet_outside_serve_package(tmp_path):
    report = _lint_source(tmp_path, (
        "import time\n"
        "async def tick():\n"
        "    time.sleep(0.1)\n"), subdir="sim")
    assert report.ok, report.render()


def test_sl009_flags_from_import_sleep_alias(tmp_path):
    report = _lint_source(tmp_path, (
        "from time import sleep as nap\n"
        "async def tick():\n"
        "    nap(0.1)\n"), subdir="serve")
    assert _codes(report) == ["SL009"]


def test_sl009_flags_run_cache_disk_methods(tmp_path):
    report = _lint_source(tmp_path, (
        "async def get_run(self, key, summary):\n"
        "    hit = self.engine.cache.get(key)\n"
        "    self.engine.cache.put(key, summary)\n"
        "    self.cache.prune()\n"
        "    return hit\n"), subdir="serve")
    assert _codes(report) == ["SL009"] * 3
    assert ".cache.get()" in report.violations[0].message


def test_sl009_quiet_on_run_cache_in_executor(tmp_path):
    # The bound method goes to an executor thread; nothing is called
    # on the loop.  A plain dict's get is no cache read either.
    report = _lint_source(tmp_path, (
        "async def get_run(self, loop, key):\n"
        "    hit = await loop.run_in_executor(\n"
        "        None, self.engine.cache.get, key)\n"
        "    return hit or self.memo.get(key)\n"), subdir="serve")
    assert report.ok, report.render()


def test_sl009_suppression(tmp_path):
    report = _lint_source(tmp_path, (
        "import time\n"
        "async def tick():\n"
        "    time.sleep(0.1)  # silolint: disable=SL009\n"),
        subdir="serve")
    assert report.ok, report.render()


# ---------------------------------------------------------------------------
# SL010: environment reads outside the ENV_READERS registry
# ---------------------------------------------------------------------------


def test_sl010_flags_read_outside_registry(tmp_path):
    report = _lint_source(tmp_path, (
        "import os\n"
        "LATENCY = int(os.environ.get('REPRO_LATENCY', '100'))\n"
        "def salt():\n"
        "    return os.getenv('REPRO_SALT', '')\n"
        "class Memory:\n"
        "    def extra(self):\n"
        "        return os.environ['REPRO_EXTRA']\n"),
        subdir="repro/memory", name="main_memory.py")
    assert _codes(report) == ["SL010"] * 3
    messages = [v.message for v in report.violations]
    assert "repro.memory.main_memory" in messages[0]
    assert "repro.memory.main_memory.salt" in messages[1]
    assert "repro.memory.main_memory.Memory.extra" in messages[2]


def test_sl010_quiet_in_registered_reader(tmp_path):
    report = _lint_source(tmp_path, (
        "import os\n"
        "def from_env(default='standard'):\n"
        "    return os.environ.get('REPRO_SAMPLING', default)\n"),
        subdir="repro/sim", name="sampling.py")
    assert report.ok, report.render()


def test_sl010_registry_is_per_function(tmp_path):
    # the registered module's other functions are not readers
    report = _lint_source(tmp_path, (
        "import os\n"
        "def parse_plan(spec):\n"
        "    return os.environ.get('REPRO_SAMPLING', spec)\n"),
        subdir="repro/sim", name="sampling.py")
    assert _codes(report) == ["SL010"]


def test_sl010_flags_from_import_alias(tmp_path):
    report = _lint_source(tmp_path, (
        "from os import getenv as env, environ\n"
        "import os as _os\n"
        "def chunk():\n"
        "    return int(env('REPRO_CHUNK', '200'))\n"
        "def salt():\n"
        "    return environ.get('REPRO_SALT') or _os.environ['X']\n"),
        subdir="repro/sim")
    assert _codes(report) == ["SL010"] * 3
    assert "os.getenv (imported as env)" in report.violations[0].message


def test_sl010_quiet_on_strings_and_comments(tmp_path):
    report = _lint_source(tmp_path, (
        "import os\n"
        "# os.environ is read in repro.sim.engine only\n"
        "HELP = 'set os.environ[\"REPRO_JOBS\"] or call os.getenv'\n"
        "def where():\n"
        "    return os.path.join('a', 'b')\n"), subdir="repro/sim")
    assert report.ok, report.render()


def test_env_readers_name_real_functions():
    for qualified in sorted(ENV_READERS):
        module, func = qualified.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(module), func))


# ---------------------------------------------------------------------------
# The seeded-bug campaign: each defect a rule claims trips that rule
# ---------------------------------------------------------------------------


def test_every_seeded_defect_applies_once():
    for defect in CAMPAIGN.DEFECTS:
        with open(os.path.join(REPO, defect.path), encoding="utf-8") as f:
            CAMPAIGN.apply_edits(f.read(), defect.edits, defect.id)


def test_campaign_gives_every_rule_two_defects():
    claimed = [d.rule for d in CAMPAIGN.DEFECTS if d.rule is not None]
    assert set(claimed) <= set(RULES)
    for code in RULES:
        assert claimed.count(code) >= 2, code
    ids = [d.id for d in CAMPAIGN.DEFECTS]
    assert len(ids) == len(set(ids))


def _plant_one_file(tmp_path, defect, planted=True):
    with open(os.path.join(REPO, defect.path), encoding="utf-8") as f:
        text = f.read()
    if planted:
        text = CAMPAIGN.apply_edits(text, defect.edits, defect.id)
    path = tmp_path.joinpath(*defect.path.split("/"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return lint_paths([str(path)])


@pytest.mark.parametrize(
    "defect", [d for d in CAMPAIGN.DEFECTS if d.rule is not None],
    ids=lambda d: d.id)
def test_seeded_defect_trips_its_rule(tmp_path, defect):
    clean = _plant_one_file(tmp_path / "clean", defect, planted=False)
    assert clean.ok, clean.render()
    report = _plant_one_file(tmp_path / "planted", defect)
    assert defect.rule in _codes(report), (defect.what, report.render())


# ---------------------------------------------------------------------------
# Acceptance: the repository's own tree is clean
# ---------------------------------------------------------------------------


def test_src_repro_lints_clean():
    report = lint_paths([SRC_REPRO])
    assert report.files_scanned > 50
    assert report.ok, report.render()


def test_module_entry_point_runs_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.verify", "lint", SRC_REPRO],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violation(s)" in proc.stdout
