"""Run-provenance manifests.

A manifest is a JSON artifact that makes an experiment run
reproducible after the fact: which code (git sha), which configuration
(full :class:`HierarchyConfig`), which inputs (seed, scale, sampling
plan), how the simulator behaved (warmup/measure wall clock,
events/sec) and what it observed (per-level exposed-latency
percentiles, optional full stats snapshot).

``RunResult.manifest()`` builds the per-run record;
:func:`write_manifest` serializes one (or an experiment-level envelope
of many) next to the text tables in ``benchmarks/results`` or any
directory the CLI's ``--manifest DIR`` names.

Schema v2 adds :func:`protocol_provenance`: the exhaustive model
checker's verdict over the coherence transition table (reachable-state
counts per core count and a pass flag), so a results file records not
just *which* code ran but that its protocol was verified at that sha.
"""

import json
import os
import subprocess

#: /3: run records may carry a ``telemetry`` section (windowed series
#: + detected phases) and experiment envelopes may carry ``profile``
#: (self-profiler report) and ``telemetry`` sections; the engine
#: snapshot gains ``flight_recorder`` (per-request spans + gauges).
#: /4: the envelope's ``profile`` section is the sampling profiler's
#: report (``layers`` and folded ``stacks`` in place of ``regions``).
MANIFEST_SCHEMA = "silo-repro-manifest/4"

_SHA_CACHE = {}
_PROTOCOL_CACHE = {}


def protocol_provenance(protocol="moesi", core_counts=(2, 3, 4)):
    """Model-check the coherence protocol and return a provenance
    record: per-core-count reachable/quiescent/transition counts and
    an overall ``verified`` flag.

    Cached per (protocol, core_counts): manifests are built once per
    run and the 4-core sweep, while fast (<0.1 s), should not be paid
    repeatedly by experiment envelopes with many runs.
    """
    key = (protocol, tuple(core_counts))
    if key in _PROTOCOL_CACHE:
        return _PROTOCOL_CACHE[key]
    from repro.verify.model_check import check_protocol
    record = {"protocol": protocol, "verified": True, "cores": {}}
    for n in core_counts:
        result = check_protocol(num_cores=n, protocol=protocol)
        record["cores"][str(n)] = {
            "reachable_states": result.reachable_states,
            "quiescent_states": result.quiescent_states,
            "transitions": result.transitions,
            "violations": result.violation_count,
        }
        if not result.ok:
            record["verified"] = False
    _PROTOCOL_CACHE[key] = record
    return record


def git_sha(repo_dir=None):
    """The current git commit sha, or None outside a repository.
    Cached per directory (manifests may be built once per run)."""
    if repo_dir is None:
        repo_dir = os.path.dirname(os.path.abspath(__file__))
    if repo_dir in _SHA_CACHE:
        return _SHA_CACHE[repo_dir]
    _SHA_CACHE[repo_dir] = sha = _git_sha_uncached(repo_dir)
    return sha


def _git_sha_uncached(repo_dir):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_dir,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.decode("ascii", "replace").strip()
    return sha or None


def write_manifest(data, directory, name):
    """Write ``data`` as ``<directory>/<name>.json``; returns the path.

    The directory is created if needed; non-JSON-native values (e.g.
    dataclasses already converted via ``asdict``, numpy scalars) fall
    back to ``str``.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name + ".json")
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=False, default=str)
        f.write("\n")
    return path
