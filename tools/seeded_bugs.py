#!/usr/bin/env python
"""Seeded-bug campaign: which checker catches which planted defect.

Every result of the reproduction rests on one promise: a run is a pure
function of its ``RunRequest`` (no wall clock, unseeded randomness or
environment variable reaches it, units and constants come from
``repro.params``, set order never decides anything), and the hot and
async paths stay cheap.  Each entry of :data:`DEFECTS` plants one
realistic breach of that promise as exact ``old -> new`` edits of one
file, tagged with its kind and with the lint rule that claims to catch
it (``None`` when no rule's documented scope covers it).

For each defect the runner copies a checkout to a temporary directory,
applies the edits (each ``old`` must occur exactly once) and records
whether each checker catches it:

* **tier-1**: ``python -m pytest -x -q`` without the checker tests
  (``tests/test_verify_lint.py`` and, where they exist,
  ``tests/test_verify_flow.py``/``test_verify_callgraph.py``), whose
  whole-tree checks would flag whatever the checkers flag;
* **lint**: ``python -m repro.verify lint src/repro``;
* **flow**: ``python -m repro.verify flow src/repro``, only in a
  checkout that still has ``repro/verify/flow.py``.

Usage::

    python tools/seeded_bugs.py [--checkout DIR]

A full run takes about 45 minutes on a 2-vCPU host (tier-1
dominates), so it is run by hand to refresh the table, not in CI;
``tests/test_verify_lint.py`` checks that every edit still applies and
replays every defect a lint rule claims against a copy of its one file
in seconds.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

#: One planted defect: ``edits`` is a tuple of ``(old, new)`` pairs,
#: applied in order to the file at ``path`` (relative to the checkout
#: root); each ``old`` must occur exactly once.  ``rule`` is the lint
#: rule that claims this kind of defect at this place, or None.
Defect = namedtuple("Defect", "id kind rule path edits what")

_SIM = "src/repro/sim/"

DEFECTS = (
    # -- wall clock ----------------------------------------------------
    Defect("W1", "wall clock", None, _SIM + "driver.py", ((
        "lat = miss(core, block, fl & FLAG_WRITE, True, t)",
        "lat = miss(core, block, fl & FLAG_WRITE, True, clock())"),),
        "a data miss timed with the profiler's clock() instead of t"),
    Defect("W2", "wall clock", "SL008", _SIM + "driver.py", (
        ("from contextlib import contextmanager\n",
         "import time\nfrom contextlib import contextmanager\n"),
        ("                            ihits += 1\n"
         "                            t += cpi_ev\n",
         "                            ihits += 1\n"
         "                            t += cpi_ev + time.time() * 1e-12\n")),
        "t += cpi_ev + time.time() * 1e-12 on an ifetch hit"),
    Defect("W3", "wall clock", "SL008", "src/repro/memory/main_memory.py", (
        ("def access(self, block, now=0.0, is_write=False):",
         "def access(self, block, now=None, is_write=False):"),
        ("        total = self.latency\n",
         "        if now is None:\n"
         "            import time\n"
         "            now = time.perf_counter()\n"
         "        total = self.latency\n")),
        "MainMemory.access(now=None) defaulting to time.perf_counter()"),
    # -- randomness and hashing ----------------------------------------
    Defect("R1", "randomness", None, "src/repro/workloads/generator.py", ((
        "    mult = 2654435761\n",
        "    import random\n"
        "    mult = random.choice((2654435761, 2246822519))\n"),),
        "_scatter's multiplier drawn with random.choice"),
    Defect("R2", "randomness", None, "src/repro/workloads/generator.py", ((
        "rng = np.random.default_rng((seed, name_hash, slot))",
        "rng = np.random.default_rng()"),),
        "an unseeded np.random.default_rng() in generate_traces"),
    Defect("R3", "randomness", None, "src/repro/faults/injector.py", ((
        "        retries = 1 + (self._hash(SITE_STALL, counter, "
        "_LANE_RETRIES)\n"
        "                       % self.plan.stall_retries_max)\n",
        "        import random\n"
        "        retries = random.randint(1, "
        "self.plan.stall_retries_max)\n"),),
        "a channel stall's retry count from random.randint"),
    Defect("H1", "randomness", None, "src/repro/workloads/generator.py", ((
        "name_hash = zlib.crc32(spec.name.encode())",
        "name_hash = hash(spec.name) & 0xFFFFFFFF"),),
        "hash(spec.name) (salted per process) in place of zlib.crc32"),
    # -- environment reads ---------------------------------------------
    Defect("E1", "environment", "SL010", "src/repro/memory/main_memory.py", ((
        "        self.latency = latency\n",
        "        import os\n"
        "        self.latency = latency + int(\n"
        "            os.environ.get(\"REPRO_MEMORY_EXTRA_CYCLES\", "
        "\"0\"))\n"),),
        "MainMemory.latency plus $REPRO_MEMORY_EXTRA_CYCLES"),
    Defect("E2", "environment", "SL010", _SIM + "engine.py", ((
        "{\"schema\": ENGINE_SCHEMA, \"code\": fingerprint,",
        "{\"schema\": ENGINE_SCHEMA, \"code\": fingerprint\n"
        "                           + os.environ.get(\"REPRO_KEY_SALT\", "
        "\"\"),"),),
        "$REPRO_KEY_SALT appended to the fingerprint in RunRequest.key"),
    Defect("E3", "environment", "SL010", "src/repro/analytic/estimator.py", ((
        "    return os.path.join(root, \"tools\", "
        "\"estimator-envelope.json\")",
        "    return os.environ.get(\n"
        "        \"REPRO_ESTIMATOR_ENVELOPE\",\n"
        "        os.path.join(root, \"tools\", "
        "\"estimator-envelope.json\"))"),),
        "envelope_path() from $REPRO_ESTIMATOR_ENVELOPE"),
    Defect("E4", "environment", "SL010", "src/repro/workloads/generator.py", ((
        "MIN_REGION_BLOCKS = 16\n",
        "import os\n\n"
        "MIN_REGION_BLOCKS = int(os.environ.get(\"REPRO_MIN_REGION_BLOCKS\","
        " \"16\"))\n"),),
        "MIN_REGION_BLOCKS from $REPRO_MIN_REGION_BLOCKS"),
    Defect("E5", "environment", "SL010", _SIM + "driver.py", ((
        "DEFAULT_CHUNK = 200\n",
        "import os\n\n"
        "DEFAULT_CHUNK = int(os.environ.get(\"REPRO_CHUNK\", \"200\"))\n"),),
        "DEFAULT_CHUNK from $REPRO_CHUNK"),
    # -- units ---------------------------------------------------------
    Defect("U1", "units", None, "src/repro/core/silo.py", ((
        "raw_cycles = max(1, round(point.access_time_ns / P.NS_PER_CYCLE))",
        "raw_cycles = max(1, round(point.access_time_ns))"),),
        "SiloParams.from_technology rounding ns as cycles"),
    Defect("U2", "units", None, "src/repro/experiments/technology.py", ((
        "lo_cycles = round(lo.access_time_ns / P.NS_PER_CYCLE)",
        "lo_cycles = round(lo.access_time_ns * P.NS_PER_CYCLE)"),),
        "derived_vault_cycles multiplying by NS_PER_CYCLE"),
    Defect("U3", "units", None, "src/repro/params.py", ((
        "MEMORY_LATENCY = ns_to_cycles(MEMORY_LATENCY_NS)",
        "MEMORY_LATENCY = int(MEMORY_LATENCY_NS)"),),
        "MEMORY_LATENCY = int(MEMORY_LATENCY_NS)"),
    Defect("U4", "units", None, "src/repro/analytic/estimator.py", ((
        "            lat[LEVEL_MEMORY] = (access + off + "
        "config.memory_latency\n"
        "                                 + queue_mem)\n",
        "            lat[LEVEL_MEMORY] = (access + off + "
        "config.memory_latency\n"
        "                                 + queue_mem + "
        "P.MEMORY_LATENCY_NS)\n"),),
        "the estimator adding P.MEMORY_LATENCY_NS to a cycle sum"),
    Defect("U5", "units", None, _SIM + "system.py", ((
        "ClosedPageController(8, config.dram_cache_latency // 2)",
        "ClosedPageController(8, int(P.TRAD_DRAM_CACHE_LATENCY_NS) // 2)"),),
        "the DRAM-cache controller's bank busy time from the ns constant"),
    # -- set iteration -------------------------------------------------
    Defect("S1", "set iteration", "SL004", _SIM + "system.py", ((
        "        for s in range(self.num_cores):\n"
        "            if mask & (1 << s):\n"
        "                st = self.l1d[s].invalidate(block)\n",
        "        for s in {c for c in range(self.num_cores)\n"
        "                  if mask & (1 << c)}:\n"
        "            if mask & (1 << s):\n"
        "                st = self.l1d[s].invalidate(block)\n"),),
        "a set comprehension driving _invalidate_peer_l1s"),
    Defect("S2", "set iteration", "SL004",
           "src/repro/workloads/generator.py", ((
        "    for region in spec.regions:\n",
        "    for region in set(spec.regions):\n"),),
        "set(spec.regions) ordering _prewarm_blocks"),
    Defect("S3", "set iteration", "SL004", "src/repro/caches/nuca.py", ((
        "        for bank in self.banks:\n",
        "        for bank in set(self.banks):\n"),),
        "SharedNUCA.blocks() walking set(self.banks)"),
    # -- blocking calls in the server ----------------------------------
    Defect("B1", "blocking call", "SL009", "src/repro/serve/server.py", ((
        "            summary = await self._loop.run_in_executor(\n"
        "                None, self.engine.cache.get, key)\n",
        "            summary = self.engine.cache.get(key)\n"),),
        "a blocking RunCache.get on the event loop in _get_run"),
    Defect("B2", "blocking call", "SL009", "src/repro/serve/server.py", ((
        "                self.rejected += 1\n",
        "                self.rejected += 1\n"
        "                import time\n"
        "                time.sleep(0.01)\n"),),
        "time.sleep(0.01) before a 429"),
    Defect("B3", "blocking call", "SL009", "src/repro/serve/server.py", ((
        "            summary = await self._loop.run_in_executor(\n"
        "                None, self.engine.cache.get, key)\n",
        "            try:\n"
        "                with open(self.engine.cache.path_for(key), \"rb\") "
        "as f:\n"
        "                    summary = pickle.load(f)\n"
        "            except OSError:\n"
        "                summary = None\n"),),
        "a cache entry read with open() on the event loop in _get_run"),
    # -- per-event work in the drive loop ------------------------------
    Defect("A1", "per-event work", "SL007", _SIM + "driver.py", ((
        "                            ihits += 1\n",
        "                            ihits += 1\n"
        "                            last = {\"core\": core, "
        "\"block\": block}\n"),),
        "a dict display allocated on every ifetch hit"),
    Defect("A2", "per-event work", None, _SIM + "driver.py", ((
        "                        dhits += 1\n",
        "                        if measuring:\n"
        "                            system.cores[core].data_count[LEVEL_L1] "
        "+= 1\n"),),
        "system.cores[core].data_count[...] += 1 per data hit (SL007 "
        "sees no chain through a subscript)"),
    Defect("A3", "per-event work", "SL007", _SIM + "driver.py", ((
        "                        dhits += 1\n",
        "                        dhits += 1\n"
        "                        if system.tracer is not None:\n"
        "                            system.tracer.emit(\"l1_hit\", t, core, "
        "block)\n"),),
        "system.tracer.emit re-traversed on every data hit"),
    # -- counters, literals, floats, module state, pragmas -------------
    Defect("C1", "counter", "SL002", "src/repro/caches/dram_cache.py", (
        ("        self.dirty = [False] * self.num_pages\n",
         "        self.dirty = [False] * self.num_pages\n"
         "        self.page_hits = 0\n"),
        ("        page = block // self.blocks_per_page\n"
        "        return self.tags[page % self.num_pages] == page\n",
        "        page = block // self.blocks_per_page\n"
        "        hit = self.tags[page % self.num_pages] == page\n"
        "        if hit:\n"
        "            self.page_hits += 1\n"
        "        return hit\n")),
        "a page_hits counter that no reset_stats zeroes"),
    Defect("C2", "counter", "SL002", "src/repro/caches/vault_cache.py", (
        ("\"holder_map\", \"holder_bit\")",
         "\"holder_map\", \"holder_bit\",\n                 \"hits\")"),
        ("        self.resident = 0 ",
         "        self.hits = 0\n        self.resident = 0 "),
        ("            return self.states[s]\n",
         "            self.hits += 1\n"
         "            return self.states[s]\n")),
        "a vault hits counter that no reset_stats zeroes"),
    Defect("L1", "literal", "SL003", _SIM + "system.py", ((
        "bank_latency=config.llc_latency)",
        "bank_latency=5)"),),
        "SharedNUCA(bank_latency=5)"),
    Defect("L2", "literal", "SL003", _SIM + "system.py", ((
        "self.memory = MainMemory(latency=config.memory_latency,",
        "self.memory = MainMemory(latency=100,"),),
        "MainMemory(latency=100) ignoring config.memory_latency"),
    Defect("L3", "literal", "SL003", "src/repro/memory/main_memory.py", ((
        "def __init__(self, latency=MEMORY_LATENCY,",
        "def __init__(self, latency=100,"),),
        "MainMemory's latency default written as 100"),
    Defect("F1", "float equality", "SL005", _SIM + "driver.py", ((
        "                        lat = miss(core, block, False, False, t)\n"
        "                        t += cpi_ev\n"
        "                        if lat:\n",
        "                        lat = miss(core, block, False, False, t)\n"
        "                        t += cpi_ev\n"
        "                        if lat != 0.0:\n"),),
        "if lat != 0.0: after an ifetch miss"),
    Defect("F2", "float equality", "SL005",
           "src/repro/memory/controller.py", ((
        "        if rho <= 0:\n",
        "        if rho == 0.0:\n"),),
        "if rho == 0.0: in the queueing model"),
    Defect("M1", "module state", "SL006", "src/repro/caches/sram_cache.py", (
        ("def whole_sets(size_bytes, ways, line_bytes=BLOCK_BYTES):\n",
         "_WHOLE_SETS = {}\n\n\n"
         "def whole_sets(size_bytes, ways, line_bytes=BLOCK_BYTES):\n"),
        ("    return size_bytes // (ways * line_bytes)\n",
         "    return _WHOLE_SETS.setdefault((size_bytes, ways, line_bytes),\n"
         "                                  size_bytes // (ways * line_bytes))"
         "\n")),
        "a module-level memo in whole_sets"),
    Defect("M2", "module state", "SL006", _SIM + "system.py", ((
        "_NO_OWNER = SharerTable.NO_OWNER\n",
        "_NO_OWNER = SharerTable.NO_OWNER\n"
        "#: Blocks any System has filled into its LLC.\n"
        "_FILLED = set()\n"),),
        "a module-level set in sim/system.py"),
    Defect("X1", "pragma", None, _SIM + "engine.py", ((
        "@functools.lru_cache(maxsize=1)\ndef code_fingerprint():",
        "# silolint: sanitizer\n"
        "@functools.lru_cache(maxsize=1)\ndef code_fingerprint():"),),
        "a stray flow-sanitizer pragma on code_fingerprint"),
)

#: Checker test files left out of the tier-1 run: their whole-tree
#: checks flag whatever lint or flow flags.
CHECKER_TESTS = ("tests/test_verify_lint.py", "tests/test_verify_flow.py",
                 "tests/test_verify_callgraph.py")

#: What a checkout copy leaves out: VCS data and run leftovers.
_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
    ".perfbench", "out", "*.egg-info")

_RULE_RE = re.compile(r"\b(SL0\d\d)\b")


def apply_edits(text, edits, label="source"):
    """``text`` with each ``(old, new)`` edit applied in order; raises
    ValueError unless every ``old`` occurs exactly once."""
    for old, new in edits:
        count = text.count(old)
        if count != 1:
            raise ValueError("%s: edit matches %d times, need 1: %r"
                             % (label, count, old[:60]))
        text = text.replace(old, new)
    return text


def plant(root, defect):
    """Apply ``defect`` to the checkout at ``root`` in place."""
    path = os.path.join(root, defect.path)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    text = apply_edits(text, defect.edits, "%s %s" % (defect.id,
                                                      defect.path))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _run(cmd, cwd, timeout):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(cwd, "src")
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, ""
    return proc.returncode, proc.stdout + proc.stderr


# Each checker returns what caught the defect -- the first failing
# test, or the rules that fired -- or "" when it passed.


def run_tier1(root, timeout=1800):
    """Tier-1 stops at its first failure, which names the catch."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q",
           "-p", "no:cacheprovider"]
    cmd += ["--ignore=" + t for t in CHECKER_TESTS
            if os.path.exists(os.path.join(root, t))]
    code, out = _run(cmd, root, timeout)
    if code is None:
        return "timeout"
    if code == 0:
        return ""
    failed = [line.split(" - ")[0].split(" ", 1)[1]
              for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else "exit %d" % code


def run_checker(root, command, timeout=600):
    """``python -m repro.verify <command>``; None when the checkout
    has no such checker."""
    if command == "flow" and not os.path.exists(
            os.path.join(root, "src", "repro", "verify", "flow.py")):
        return None
    code, out = _run([sys.executable, "-m", "repro.verify", command,
                      "src/repro"], root, timeout)
    if code == 0:
        return ""
    rules = sorted(set(_RULE_RE.findall(
        "\n".join(line for line in out.splitlines()
                  if re.match(r"\S+:\d+:\d+: ", line)))))
    return ",".join(rules) or "exit %s" % code


def run_defect(checkout, defect):
    """Plant ``defect`` in a fresh copy of ``checkout``; run every
    checker on it and return a result dict."""
    work = tempfile.mkdtemp(prefix="seeded-%s-" % defect.id)
    try:
        root = os.path.join(work, "tree")
        shutil.copytree(checkout, root, ignore=_IGNORE)
        plant(root, defect)
        result = {"id": defect.id, "kind": defect.kind,
                  "rule": defect.rule, "what": defect.what,
                  "lint": run_checker(root, "lint"),
                  "flow": run_checker(root, "flow"),
                  "tier1": run_tier1(root)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def render(results):
    """A Markdown table of ``results`` (a flow column only when some
    checkout had flow) plus a totals line."""
    names = ["tier1", "lint"]
    if any(r["flow"] is not None for r in results):
        names.append("flow")

    def cell(r, name):
        if not r[name]:
            return "-"
        # tests/test_x.py::test_y[params] -> test_x.py::test_y
        return "yes (%s)" % r[name].split("[")[0].replace("tests/", "", 1)

    title = {"tier1": "tier-1", "lint": "lint", "flow": "flow"}
    lines = ["| id | kind | claimed by | %s |"
             % " | ".join(title[n] for n in names),
             "|---|---|---|%s" % ("---|" * len(names))]
    for r in results:
        lines.append("| %s | %s | %s | %s |" % (
            r["id"], r["kind"], r["rule"] or "-",
            " | ".join(cell(r, n) for n in names)))
    totals = ", ".join("%s %d" % (title[n], sum(bool(r[n]) for r in results))
                       for n in names)
    only = [r["id"] for r in results
            if not r["tier1"] and any(r[n] for n in names[1:])]
    none = [r["id"] for r in results
            if not any(r[n] for n in names)]
    lines.append("")
    lines.append("%d defects; caught by %s; by a static checker only: "
                 "%s; by nothing: %s" % (
                     len(results), totals, " ".join(only) or "none",
                     " ".join(none) or "none"))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Plant each seeded defect in a copy of a checkout "
                    "and record which checker catches it.")
    parser.add_argument("--checkout", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="checkout to copy (default: this one)")
    args = parser.parse_args(argv)
    for d in DEFECTS:
        with open(os.path.join(args.checkout, d.path),
                  encoding="utf-8") as f:
            apply_edits(f.read(), d.edits, "%s %s" % (d.id, d.path))
    results = []
    for d in DEFECTS:
        results.append(run_defect(args.checkout, d))
        r = results[-1]
        print("%s tier-1=%r lint=%r flow=%r"
              % (d.id, r["tier1"], r["lint"], r["flow"]),
              file=sys.stderr, flush=True)
    print(render(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
