"""Exhaustive model checking of the vault coherence protocol.

Three layers of assurance:

* the seed MOESI/MESI tables are violation-free at 2-4 cores, with the
  reachable-state counts pinned (a protocol change must consciously
  update them);
* the checker actually *catches* corruption: one deliberately broken
  table per invariant class, each yielding a minimal counterexample
  trace rooted at the initial state;
* the concrete simulator agrees with the abstract spec: every
  transition the checker enumerates, replayed on a live system
  (``check_concrete_system``), lands in the state the table names.
"""

import pytest

from repro.coherence.states import (
    INVALID, SHARED, EXCLUSIVE, OWNED, MODIFIED)
from repro.verify.model_check import (
    ModelChecker, check_concrete_system, check_protocol, initial_state,
    format_state)
from repro.verify.protocol_spec import (
    EVICT, L1_EVICT, L1_KEEP, LOAD, MEM_KEEP, Rule, STORE, build_table)

# Pinned state-space sizes: (protocol, cores) -> (reachable, quiescent,
# transitions).  These are exact -- the enumeration is deterministic --
# and changing the protocol table must change them.
EXPECTED_SIZES = {
    ("moesi", 2): (205, 29, 352),
    ("moesi", 3): (939, 93, 1692),
    ("moesi", 4): (4137, 313, 7648),
    ("mesi", 2): (115, 17, 196),
    ("mesi", 3): (372, 39, 666),
    ("mesi", 4): (1221, 97, 2248),
}


@pytest.mark.parametrize("protocol,cores",
                         sorted(EXPECTED_SIZES))
def test_seed_protocol_is_violation_free(protocol, cores):
    result = check_protocol(num_cores=cores, protocol=protocol)
    assert result.ok, result.counterexample()
    assert result.violation_count == 0
    assert result.counterexample() is None


@pytest.mark.parametrize("protocol,cores",
                         sorted(EXPECTED_SIZES))
def test_reachable_state_counts_are_pinned(protocol, cores):
    result = check_protocol(num_cores=cores, protocol=protocol)
    expected = EXPECTED_SIZES[(protocol, cores)]
    actual = (result.reachable_states, result.quiescent_states,
              result.transitions)
    assert actual == expected, (
        "state space for %s x %d changed: %r != %r -- if the protocol "
        "table changed on purpose, update EXPECTED_SIZES"
        % (protocol, cores, actual, expected))


def test_state_space_grows_with_cores():
    sizes = [check_protocol(num_cores=n).reachable_states
             for n in (2, 3, 4)]
    assert sizes[0] < sizes[1] < sizes[2]


def test_mesi_space_is_smaller_than_moesi():
    # No OWNED state -> strictly fewer configurations.
    moesi = check_protocol(num_cores=2, protocol="moesi")
    mesi = check_protocol(num_cores=2, protocol="mesi")
    assert mesi.reachable_states < moesi.reachable_states


def test_summary_and_as_dict():
    result = check_protocol(num_cores=2)
    s = result.summary()
    assert "moesi" in s and "205" in s and "0 violation" in s
    d = result.as_dict()
    assert d["reachable_states"] == 205
    assert d["violations"] == 0
    assert d["first_counterexample"] is None


def test_checker_rejects_single_core():
    with pytest.raises(ValueError):
        ModelChecker(num_cores=1)


def test_initial_state_formatting():
    s = initial_state(2)
    assert format_state(s) == "C0:I C1:I mem=fresh pending=-"


# ---------------------------------------------------------------------------
# Mutation tests: each class of table corruption must be caught
# ---------------------------------------------------------------------------


def _corrupt(key, rule):
    table = build_table("moesi")
    if rule is None:
        del table[key]
    else:
        table[key] = rule
    return ModelChecker(num_cores=2, table=table).run()


def _assert_caught(result, invariant):
    assert not result.ok
    violations = {v.invariant for v in result.violations}
    assert invariant in violations, (
        "expected a %r violation, got %r" % (invariant, violations))
    first = result.violations[0]
    # minimal counterexample: rooted at init, ends at the bad state
    assert first.trace[0][0] == "init"
    assert first.trace[-1][1] == first.state
    assert invariant in result.counterexample()


def test_catches_store_that_leaves_peers_valid():
    # A store that forgets to invalidate peer copies -> SWMR breaks.
    result = _corrupt((STORE, INVALID),
                      Rule(MODIFIED, mem="stale"))
    _assert_caught(result, "swmr")


def test_catches_missing_rule_as_deadlock():
    result = _corrupt((LOAD, INVALID), None)
    _assert_caught(result, "deadlock")


def test_catches_lost_dirty_eviction():
    # Evicting an M copy without a writeback loses the last write.
    result = _corrupt((EVICT, MODIFIED),
                      Rule(INVALID, l1="drop", mem=MEM_KEEP))
    _assert_caught(result, "data_source")


def test_catches_directory_drift():
    # A rule that installs a directory entry diverging from the vault.
    result = _corrupt((LOAD, INVALID),
                      Rule(next_alone=EXCLUSIVE, next_shared=SHARED,
                           dir_next=SHARED))
    _assert_caught(result, "directory_mirror")


def test_catches_inclusion_break():
    # A vault eviction that forgets to back-invalidate the L1.
    result = _corrupt((EVICT, EXCLUSIVE),
                      Rule(INVALID, l1=L1_KEEP))
    _assert_caught(result, "inclusion")


def test_catches_double_exclusive():
    # Serving a shared read miss with E instead of S.
    result = _corrupt((LOAD, INVALID),
                      Rule(next_alone=EXCLUSIVE, next_shared=EXCLUSIVE))
    _assert_caught(result, "exclusive_sole")


def test_counterexample_is_minimal():
    # Reaching (STORE, SHARED) needs the requester Shared, i.e. two
    # loads first: init + 3 issue/serve pairs = 7 trace entries, and
    # BFS cannot do worse.
    result = _corrupt((STORE, SHARED), Rule(MODIFIED, mem="stale"))
    assert not result.ok
    first = result.violations[0]
    assert len(first.trace) <= 7


# ---------------------------------------------------------------------------
# The concrete simulator agrees with the spec
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cores", [2, 4])
def test_concrete_system_matches_spec(cores):
    for protocol in ("moesi", "mesi"):
        transitions, mismatches = check_concrete_system(cores, protocol)
        assert mismatches == []
        # The checker issues one request per pending state, each from
        # a quiescent state: replaying them all covers every one.
        reachable, quiescent, _ = EXPECTED_SIZES[(protocol, cores)]
        assert transitions == reachable - quiescent


@pytest.mark.parametrize("protocol", ["moesi", "mesi"])
def test_replay_catches_a_lost_update(protocol, monkeypatch):
    # A read of a dirty block drops its supplier to S with no
    # writeback: MOESI should keep it O, MESI should write it back.
    from repro.sim.system import VaultSystem

    def lossy(self, supplier, block, sup_state):
        self.vaults[supplier].update(block, SHARED)
        if self.l1d[supplier].contains(block):
            self.l1d[supplier].update(block, SHARED)

    monkeypatch.setattr(VaultSystem, "_downgrade_supplier", lossy)
    _transitions, mismatches = check_concrete_system(2, protocol)
    assert mismatches
    assert mismatches[0].startswith("C0.store C1.load: simulator C0:S+L1")


@pytest.mark.parametrize("cores", ["1", "0"])
def test_cli_refuses_fewer_than_two_cores(cores, capsys):
    from repro.verify.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["check", "--cores", cores])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "need at least 2 cores" in err


def test_cli_replays_the_requested_protocol(capsys):
    import json

    from repro.verify.__main__ import main

    assert main(["check", "--cores", "2", "--protocol", "mesi",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    reachable, quiescent, _ = EXPECTED_SIZES[("mesi", 2)]
    assert doc["replay"] == {"transitions": reachable - quiescent,
                             "mismatches": []}


def test_check_consistent_detects_planted_drift():
    from repro.cores.perf_model import CoreParams
    from repro.sim.config import HierarchyConfig
    from repro.sim.system import System

    config = HierarchyConfig(
        name="drift", num_cores=4, scale=1,
        l1_size_bytes=1024, l1_ways=2,
        llc_kind="private_vault", llc_size_bytes=8 * 64,
        llc_latency=23, memory_queueing=False)
    s = System(config, [CoreParams()] * 4)
    s.access(0, 0, False, False)
    s.directory.check_consistent()
    # plant drift: flip the vault state behind the directory's back
    vault = s.vaults[0]
    set_idx = s.directory.set_index(0)
    vault.states[set_idx] = 0
    with pytest.raises(AssertionError):
        s.directory.check_consistent()
