"""The whole-program flow analysis: determinism taint (SL010/SL011)
and unit consistency (SL012).

Four layers of coverage:

* per-rule positive/negative fixtures (taint reaching a sink, flows
  cut by sanctioned sanitizers, mixed-unit arithmetic, explicit
  conversions);
* the unit algebra itself (parse/format, products, scalar identity);
* analysis plumbing: baseline add/expire round-trip, the incremental
  cache, suppressions, SARIF/JSON output, CLI exit codes;
* mutation tests: a wall-clock leak planted in a copy of the real
  ``sim/driver.py`` must trip SL010, and a unit-dropping return
  planted in a copy of ``dram/timing.py`` must trip SL012 -- proof the
  analyzer detects the regressions it exists for, on the real code.

The repository acceptance gate (``src/repro`` analyzes clean against
the checked-in baseline) lives at the bottom.
"""

import json
import os
import subprocess
import sys

from repro.verify.flow import (DEFAULT_BASELINE, FLOW_RULES, analyze,
                               load_baseline, main, write_baseline)
from repro.verify.units import SCALAR, format_unit, parse_unit

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO, "src", "repro")


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def _rules(report):
    return sorted(f["rule"] for f in report.findings)


def _analyze(tmp_path, **kwargs):
    kwargs.setdefault("repo_root", str(tmp_path))
    return analyze([str(tmp_path)], **kwargs)


# ---------------------------------------------------------------------------
# SL010: determinism taint, intraprocedural
# ---------------------------------------------------------------------------


def test_sl010_wallclock_into_stats_counter(tmp_path):
    _write(tmp_path, "sim/mod.py",
           "import time\n"
           "class C:\n"
           "    def tick(self):\n"
           "        self.stall_count += time.time()\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert f["rule"] == "SL010"
    assert f["sink"] == "stats"
    assert f["source"]["kind"] == "wallclock"


def test_sl010_rng_into_distribution_record(tmp_path):
    _write(tmp_path, "sim/mod.py",
           "from random import Random\n"
           "class C:\n"
           "    def fill(self, dist):\n"
           "        rng = Random()\n"
           "        dist.record(rng.random())\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert f["rule"] == "SL010"
    assert f["source"]["kind"] == "rng"


def test_sl010_env_subscript_is_a_source(tmp_path):
    _write(tmp_path, "sim/mod.py",
           "import os\n"
           "class C:\n"
           "    def tune(self, dist):\n"
           "        dist.record(int(os.environ['KNOB']))\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert f["source"]["kind"] == "env"


def test_sl010_quiet_on_clean_counter(tmp_path):
    _write(tmp_path, "sim/mod.py",
           "class C:\n"
           "    def tick(self, n):\n"
           "        self.hits += n\n")
    assert _analyze(tmp_path).findings == []


def test_sl010_seeded_random_is_sanctioned(tmp_path):
    _write(tmp_path, "sim/mod.py",
           "from random import Random\n"
           "class C:\n"
           "    def fill(self, dist, seed):\n"
           "        rng = Random(seed)\n"
           "        dist.record(rng.random())\n")
    assert _analyze(tmp_path).findings == []


def test_sl010_stats_sinks_scoped_to_sim_dirs(tmp_path):
    # The same pattern outside the stats-scoped packages is not a
    # replay observable (e.g. plotting or tools code).
    _write(tmp_path, "plots/mod.py",
           "import time\n"
           "class C:\n"
           "    def tick(self):\n"
           "        self.stall_count += time.time()\n")
    assert _analyze(tmp_path).findings == []


# ---------------------------------------------------------------------------
# SL010: interprocedural flows
# ---------------------------------------------------------------------------


def test_sl010_taint_crosses_function_call(tmp_path):
    _write(tmp_path, "util.py",
           "import time\n"
           "def now_ms():\n"
           "    return time.time() * 1000.0\n")
    _write(tmp_path, "sim/mod.py",
           "from util import now_ms\n"
           "class C:\n"
           "    def observe(self, dist):\n"
           "        dist.record(now_ms())\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert f["rule"] == "SL010"
    assert f["source"]["symbol"] == "now_ms"
    assert "now_ms" in " ".join(f["trace"])


def test_sl010_taint_through_two_hops_and_locals(tmp_path):
    _write(tmp_path, "a.py",
           "import os\n"
           "def knob():\n"
           "    return int(os.getenv('X', '1'))\n")
    _write(tmp_path, "b.py",
           "from a import knob\n"
           "def scaled():\n"
           "    k = knob()\n"
           "    return k * 2\n")
    _write(tmp_path, "sim/mod.py",
           "from b import scaled\n"
           "class C:\n"
           "    def tick(self):\n"
           "        self.miss_count += scaled()\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert f["source"]["kind"] == "env"
    assert f["source"]["symbol"] == "knob"


def test_sl010_self_call_reaches_subclass_override(tmp_path):
    # A base-class method dispatches to a method only its subclass
    # defines (the System.access -> _miss shape): the wall-clock read
    # the override returns must still reach the base's stats sink.
    _write(tmp_path, "sim/mod.py",
           "import time\n"
           "class Base:\n"
           "    def tick(self):\n"
           "        self.stall_count += self.delay()\n"
           "class Sub(Base):\n"
           "    def delay(self):\n"
           "        return time.time()\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert f["symbol"] == "Base.tick"
    assert f["source"]["kind"] == "wallclock"
    assert f["source"]["symbol"] == "Sub.delay"


def test_sl010_self_call_reaches_inherited_helper(tmp_path):
    _write(tmp_path, "sim/mod.py",
           "import time\n"
           "class Base:\n"
           "    def delay(self):\n"
           "        return time.time()\n"
           "class Sub(Base):\n"
           "    def tick(self):\n"
           "        self.stall_count += self.delay()\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert f["symbol"] == "Sub.tick"
    assert f["source"]["symbol"] == "Base.delay"


def test_sl010_clean_interprocedural_flow(tmp_path):
    _write(tmp_path, "util.py",
           "def double(x):\n"
           "    return x * 2\n")
    _write(tmp_path, "sim/mod.py",
           "from util import double\n"
           "class C:\n"
           "    def tick(self, n):\n"
           "        self.hits += double(n)\n")
    assert _analyze(tmp_path).findings == []


def test_sl010_wallclock_into_manifest_is_exempt(tmp_path):
    # Manifests are provenance records: documenting the wall clock
    # there is the point, not a leak.
    _write(tmp_path, "sim/mod.py",
           "import time\n"
           "class R:\n"
           "    def manifest(self):\n"
           "        return {'wall_s': time.time()}\n")
    assert _analyze(tmp_path).findings == []


def test_sl010_rng_into_manifest_still_flagged(tmp_path):
    _write(tmp_path, "sim/mod.py",
           "import random\n"
           "class R:\n"
           "    def manifest(self):\n"
           "        return {'jitter': random.random()}\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert f["sink"] == "manifest"
    assert f["source"]["kind"] == "rng"


def test_sl010_summary_classmethod_building_cls_is_a_summary_sink(
        tmp_path):
    # RunSummary.snapshot builds ``cls(...)``: that is a RunSummary
    # constructor too, so its fields stay replay-checked.
    _write(tmp_path, "sim/mod.py",
           "import random\n"
           "class RunSummary:\n"
           "    @classmethod\n"
           "    def snapshot(cls):\n"
           "        return cls(counters=random.random())\n"
           "class Other:\n"
           "    @classmethod\n"
           "    def make(cls):\n"
           "        return cls(counters=random.random())\n")
    (f,) = _analyze(tmp_path).findings
    assert f["sink"] == "summary"
    assert f["symbol"] == "RunSummary.snapshot"
    assert "RunSummary(counters=...)" in f["message"]


def test_sl010_summary_subclass_constructor_is_a_summary_sink(tmp_path):
    # EstimateSummary(RunSummary) is cached and served like any
    # summary: its constructor fields are sinks too, and so are those of
    # a class derived from it; an unrelated class's are not.
    _write(tmp_path, "pkg/summary.py",
           "class RunSummary:\n"
           "    pass\n")
    _write(tmp_path, "pkg/estimator.py",
           "import os\n"
           "from pkg.summary import RunSummary\n"
           "class EstimateSummary(RunSummary):\n"
           "    pass\n"
           "class TightSummary(EstimateSummary):\n"
           "    pass\n"
           "class Other:\n"
           "    pass\n"
           "def estimate():\n"
           "    return EstimateSummary(error_bound=os.environ['B'])\n"
           "def tight():\n"
           "    return TightSummary(error_bound=os.environ['B'])\n"
           "def other():\n"
           "    return Other(error_bound=os.environ['B'])\n")
    findings = _analyze(tmp_path).findings
    assert sorted(f["symbol"] for f in findings) == ["estimate", "tight"]
    assert all(f["sink"] == "summary" for f in findings)
    assert "EstimateSummary(error_bound=...)" in findings[0]["message"]


# ---------------------------------------------------------------------------
# SL011: sanitizer pragma registry
# ---------------------------------------------------------------------------


def test_sl011_unregistered_sanitizer_pragma(tmp_path):
    _write(tmp_path, "mod.py",
           "# silolint: sanitizer\n"
           "def launder(x):\n"
           "    return x\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert f["rule"] == "SL011"
    assert "SANCTIONED_SANITIZERS" in f["message"]


def test_sl011_registered_sanitizer_is_clean():
    # The repository's own pragma'd splitmix64 mixer is registered.
    report = analyze([os.path.join(SRC_REPRO, "faults")],
                     repo_root=REPO)
    assert not any(f["rule"] == "SL011" for f in report.findings)


def test_sanctioned_sanitizer_cuts_taint(tmp_path):
    # A call that resolves into SANCTIONED_SANITIZERS returns clean
    # even with tainted arguments (the registry names the repo's
    # splitmix64 mixer, so the fixture mimics its qualified name).
    _write(tmp_path, "repro/faults/injector.py",
           "def _mix(z):\n"
           "    return z ^ (z >> 31)\n")
    _write(tmp_path, "repro/sim/mod.py",
           "import time\n"
           "from repro.faults.injector import _mix\n"
           "class C:\n"
           "    def tick(self):\n"
           "        self.retry_count += _mix(int(time.time()))\n")
    assert _analyze(tmp_path).findings == []


# ---------------------------------------------------------------------------
# SL012: unit consistency
# ---------------------------------------------------------------------------


def test_unit_algebra():
    ns_per_cycle = parse_unit("ns/cycle")
    assert parse_unit("1") == SCALAR
    assert parse_unit("ratio") == SCALAR
    assert ns_per_cycle == frozenset({("ns", 1), ("cycle", -1)})
    assert format_unit(ns_per_cycle) == "ns/cycle"
    assert format_unit(SCALAR) == "1"
    assert parse_unit("nj/access") == frozenset({("nj", 1),
                                                 ("access", -1)})


def test_sl012_mixed_unit_add(tmp_path):
    _write(tmp_path, "mod.py",
           "from repro.params import L1_LATENCY, MEMORY_LATENCY_NS\n"
           "total = L1_LATENCY + MEMORY_LATENCY_NS\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert f["rule"] == "SL012"
    assert "cycle" in f["message"] and "ns" in f["message"]


def test_sl012_explicit_conversion_is_silent(tmp_path):
    _write(tmp_path, "mod.py",
           "from repro.params import (L1_LATENCY, MEMORY_LATENCY_NS,\n"
           "                          NS_PER_CYCLE, ns_to_cycles)\n"
           "a = L1_LATENCY + ns_to_cycles(MEMORY_LATENCY_NS)\n"
           "b = L1_LATENCY * NS_PER_CYCLE + MEMORY_LATENCY_NS\n")
    assert _analyze(tmp_path).findings == []


def test_sl012_scalar_literals_are_wildcards(tmp_path):
    _write(tmp_path, "mod.py",
           "from repro.params import L1_LATENCY\n"
           "bumped = L1_LATENCY + 1\n"
           "halved = L1_LATENCY / 2\n")
    assert _analyze(tmp_path).findings == []


def test_sl012_wrong_argument_unit(tmp_path):
    _write(tmp_path, "mod.py",
           "from repro.params import L1_LATENCY, ns_to_cycles\n"
           "x = ns_to_cycles(L1_LATENCY)\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert f["rule"] == "SL012"
    assert "wants ns, got cycle" in f["message"]


def test_sl012_mixed_unit_comparison(tmp_path):
    _write(tmp_path, "mod.py",
           "from repro.params import L1_LATENCY, MEMORY_LATENCY_NS\n"
           "slow = L1_LATENCY > MEMORY_LATENCY_NS\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert "comparing" in f["message"]


def test_sl012_unit_dropping_return(tmp_path):
    # A module taking the qualified name of an annotated function
    # (repro.dram.timing.access_time_ns -> ns) but returning cycles.
    _write(tmp_path, "repro/dram/timing.py",
           "from repro.params import MEMORY_LATENCY\n"
           "def access_time_ns():\n"
           "    return MEMORY_LATENCY\n")
    report = _analyze(tmp_path)
    (f,) = report.findings
    assert f["rule"] == "SL012"
    assert "return drops units" in f["message"]


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


def test_flow_honors_line_suppression(tmp_path):
    _write(tmp_path, "sim/mod.py",
           "import time\n"
           "class C:\n"
           "    def tick(self):\n"
           "        self.stall_count += time.time()"
           "  # silolint: disable=SL010\n")
    report = _analyze(tmp_path)
    assert report.findings == []
    assert report.suppressed == 1


def test_flow_honors_disable_file_pragma(tmp_path):
    _write(tmp_path, "mod.py",
           "# silolint: disable-file=SL012\n"
           "from repro.params import L1_LATENCY, MEMORY_LATENCY_NS\n"
           "total = L1_LATENCY + MEMORY_LATENCY_NS\n")
    report = _analyze(tmp_path)
    assert report.findings == []
    assert report.suppressed == 1


# ---------------------------------------------------------------------------
# baseline round-trip
# ---------------------------------------------------------------------------

_LEAKY = ("import time\n"
          "class C:\n"
          "    def tick(self):\n"
          "        self.stall_count += time.time()\n")


def test_baseline_add_then_expire(tmp_path):
    _write(tmp_path, "sim/mod.py", _LEAKY)
    baseline = tmp_path / "baseline.json"

    report = _analyze(tmp_path)
    assert len(report.findings) == 1
    write_baseline(str(baseline), report.findings)

    # Baselined: the finding no longer fails the run.
    report = _analyze(tmp_path, baseline_path=str(baseline))
    assert report.findings == []
    assert len(report.baselined) == 1
    assert report.stale_baseline == []

    # Fix the leak: the baseline entry is now stale and says so.
    _write(tmp_path, "sim/mod.py",
           "class C:\n"
           "    def tick(self, n):\n"
           "        self.stall_count += n\n")
    report = _analyze(tmp_path, baseline_path=str(baseline))
    assert report.findings == []
    assert len(report.stale_baseline) == 1
    assert "remove it" in report.render()


def test_baseline_fingerprint_survives_line_drift(tmp_path):
    _write(tmp_path, "sim/mod.py", _LEAKY)
    baseline = tmp_path / "baseline.json"
    write_baseline(str(baseline), _analyze(tmp_path).findings)

    # Push the leak down 20 lines: same fingerprint, still baselined.
    _write(tmp_path, "sim/mod.py", "# pad\n" * 20 + _LEAKY)
    report = _analyze(tmp_path, baseline_path=str(baseline))
    assert report.findings == []
    assert len(report.baselined) == 1


def test_write_baseline_keeps_justifications(tmp_path):
    _write(tmp_path, "sim/mod.py", _LEAKY)
    baseline = tmp_path / "baseline.json"
    report = _analyze(tmp_path)
    write_baseline(str(baseline), report.findings)
    doc = json.load(open(str(baseline)))
    doc["entries"][0]["justification"] = "known, tracked in #7"
    json.dump(doc, open(str(baseline), "w"))

    write_baseline(str(baseline), report.findings,
                   previous=load_baseline(str(baseline)))
    doc = json.load(open(str(baseline)))
    assert doc["entries"][0]["justification"] == "known, tracked in #7"


# ---------------------------------------------------------------------------
# incremental cache
# ---------------------------------------------------------------------------


def test_cache_warm_run_hits_every_file(tmp_path):
    _write(tmp_path, "sim/mod.py", _LEAKY)
    cache = tmp_path / "cache.json"
    cold = _analyze(tmp_path, cache_file=str(cache))
    warm = _analyze(tmp_path, cache_file=str(cache))
    assert cold.stats["cache_misses"] == cold.files_scanned
    assert warm.stats["cache_hits"] == warm.files_scanned
    assert warm.stats["cache_misses"] == 0
    # Cached and fresh extraction must agree finding-for-finding.
    assert [dict(f) for f in warm.findings] \
        == [dict(f) for f in cold.findings]


def test_cache_invalidates_only_changed_file(tmp_path):
    _write(tmp_path, "sim/mod.py", _LEAKY)
    _write(tmp_path, "sim/other.py", "x = 1\n")
    cache = tmp_path / "cache.json"
    _analyze(tmp_path, cache_file=str(cache))
    _write(tmp_path, "sim/other.py", "x = 2\n")
    warm = _analyze(tmp_path, cache_file=str(cache))
    assert warm.stats["cache_misses"] == 1
    assert warm.stats["cache_hits"] == warm.files_scanned - 1
    assert len(warm.findings) == 1


def test_corrupt_cache_is_ignored(tmp_path):
    _write(tmp_path, "sim/mod.py", _LEAKY)
    cache = tmp_path / "cache.json"
    cache.write_text("not json{")
    report = _analyze(tmp_path, cache_file=str(cache))
    assert len(report.findings) == 1


# ---------------------------------------------------------------------------
# output formats and CLI
# ---------------------------------------------------------------------------


def test_json_report_schema(tmp_path):
    _write(tmp_path, "sim/mod.py", _LEAKY)
    report = _analyze(tmp_path)
    data = report.as_dict()
    assert data["version"] == 1
    assert data["counts"] == {"SL010": 1}
    assert data["rules"] == FLOW_RULES
    assert data["baselined"] == 0
    assert data["suppressed"] == 0
    (f,) = data["findings"]
    assert f["sink"] == "stats"
    json.dumps(data)  # must be JSON-serializable as-is


def test_sarif_output(tmp_path):
    _write(tmp_path, "sim/mod.py", _LEAKY)
    report = _analyze(tmp_path)
    sarif = report.to_sarif()
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "silolint-flow"
    assert sorted(r["id"] for r in run["tool"]["driver"]["rules"]) \
        == sorted(FLOW_RULES)
    (result,) = run["results"]
    assert result["ruleId"] == "SL010"
    assert result["level"] == "error"
    assert result["partialFingerprints"]["silolintFlow/v1"]
    json.dumps(sarif)


def test_sarif_marks_baselined_as_suppressed(tmp_path):
    _write(tmp_path, "sim/mod.py", _LEAKY)
    baseline = tmp_path / "baseline.json"
    write_baseline(str(baseline), _analyze(tmp_path).findings)
    report = _analyze(tmp_path, baseline_path=str(baseline))
    (result,) = report.to_sarif()["runs"][0]["results"]
    assert result["level"] == "note"
    assert result["suppressions"][0]["kind"] == "external"


def test_cli_exit_codes(tmp_path, capsys):
    clean = _write(tmp_path, "clean.py", "x = 1\n")
    dirty_dir = tmp_path / "dirty"
    _write(tmp_path, "dirty/sim/mod.py", _LEAKY)
    assert main([str(clean), "--no-baseline", "--no-cache"]) == 0
    assert main([str(dirty_dir), "--no-baseline", "--no-cache"]) == 1
    capsys.readouterr()
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in FLOW_RULES:
        assert code in out


def _stale_baseline(tmp_path):
    """A baseline whose one entry (an SL010 in ``sim/mod.py``) went
    stale: the leak it justified is fixed."""
    _write(tmp_path, "sim/mod.py", _LEAKY)
    baseline = tmp_path / "baseline.json"
    write_baseline(str(baseline), _analyze(tmp_path).findings)
    _write(tmp_path, "sim/mod.py",
           "class C:\n"
           "    def tick(self, n):\n"
           "        self.stall_count += n\n")
    return str(baseline)


def test_cli_stale_in_scope_baseline_entry_fails(tmp_path, capsys,
                                                 monkeypatch):
    baseline = _stale_baseline(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["sim", "--baseline", baseline, "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "stale baseline entry" in out and "fix the code" in out
    assert main(["sim", "--baseline", baseline, "--no-cache",
                 "--select", "SL010"]) == 1


def test_cli_stale_out_of_scope_baseline_entry_passes(tmp_path, capsys,
                                                      monkeypatch):
    baseline = _stale_baseline(tmp_path)
    _write(tmp_path, "other/clean.py", "x = 1\n")
    monkeypatch.chdir(tmp_path)
    # the entry's file was not analyzed
    assert main(["other", "--baseline", baseline, "--no-cache"]) == 0
    # the entry's rule was not selected
    assert main(["sim", "--baseline", baseline, "--no-cache",
                 "--select", "SL012"]) == 0
    assert "stale" not in capsys.readouterr().out


def test_cli_select_restricts_rules(tmp_path, capsys):
    _write(tmp_path, "sim/mod.py", _LEAKY)
    assert main([str(tmp_path), "--no-baseline", "--no-cache",
                 "--select", "SL012"]) == 0
    capsys.readouterr()


def test_cli_writes_sarif_file(tmp_path, capsys):
    _write(tmp_path, "sim/mod.py", _LEAKY)
    sarif_path = tmp_path / "out" / "flow.sarif"
    assert main([str(tmp_path), "--no-baseline", "--no-cache",
                 "--sarif", str(sarif_path)]) == 1
    capsys.readouterr()
    doc = json.load(open(str(sarif_path)))
    assert doc["runs"][0]["results"]


# ---------------------------------------------------------------------------
# mutation tests: planted regressions in copies of the real tree
# ---------------------------------------------------------------------------


def test_mutation_wallclock_leak_in_driver_trips_sl010(tmp_path):
    src = open(os.path.join(SRC_REPRO, "sim", "driver.py")).read()
    assert "t += cpi_ev" in src
    mutated = "import time\n" + src.replace(
        "t += cpi_ev", "t += cpi_ev + time.time() * 1e-12", 1)
    _write(tmp_path, "repro/sim/driver.py", mutated)
    report = _analyze(tmp_path)
    hits = [f for f in report.findings
            if f["rule"] == "SL010" and f["sink"] == "clock-advance"
            and f["source"]["kind"] == "wallclock"]
    assert hits, "planted time.time() leak in _drive went undetected"


def test_mutation_unit_drop_in_timing_trips_sl012(tmp_path):
    src = open(os.path.join(SRC_REPRO, "dram", "timing.py")).read()
    mutated = (src + "\n\ndef access_time_ns():\n"
                     "    from repro.params import MEMORY_LATENCY\n"
                     "    return MEMORY_LATENCY\n")
    _write(tmp_path, "repro/dram/timing.py", mutated)
    report = _analyze(tmp_path)
    hits = [f for f in report.findings
            if f["rule"] == "SL012"
            and "return drops units" in f["message"]]
    assert hits, "planted cycles-for-ns return went undetected"


# ---------------------------------------------------------------------------
# repository acceptance: src/repro analyzes clean against the baseline
# ---------------------------------------------------------------------------


def test_src_repro_flows_clean_against_baseline():
    report = analyze([SRC_REPRO],
                     baseline_path=os.path.join(REPO, DEFAULT_BASELINE),
                     repo_root=REPO)
    assert report.errors == []
    assert report.findings == [], report.render()
    assert report.stale_baseline == [], report.render()
    # Every baseline entry carries a real one-line justification.
    baseline = load_baseline(os.path.join(REPO, DEFAULT_BASELINE))
    for entry in baseline.values():
        assert entry["justification"].strip()
        assert not entry["justification"].startswith("TODO")


def test_src_repro_warm_rerun_is_fast(tmp_path):
    cache = tmp_path / "cache.json"
    analyze([SRC_REPRO], cache_file=str(cache), repo_root=REPO)
    warm = analyze([SRC_REPRO], cache_file=str(cache), repo_root=REPO)
    assert warm.stats["cache_misses"] == 0
    assert warm.stats["elapsed_s"] < 2.0


def test_module_entry_point_runs_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.verify", "flow", "src/repro",
         "--no-cache", "--json"],
        cwd=REPO, capture_output=True, text=True,
        env=dict(os.environ,
                 PYTHONPATH=os.path.join(REPO, "src")))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(proc.stdout)
    assert data["findings"] == []
    assert data["baselined"] > 0
