"""Exhaustive enumeration of the vault coherence protocol state space.

Murphi-style explicit-state model checking for the declarative
transition table in :mod:`repro.verify.protocol_spec`: breadth-first
search with state hashing over every reachable configuration of a
small system (2-4 cores, one block), asserting the protocol invariants
(:data:`repro.verify.protocol_spec.INVARIANTS`) on every state.  BFS
order makes the first trace to any violating state a *minimal*
counterexample.

The abstract state is exactly what the issue of a request can observe:

* per core, the block's vault state, whether an (inclusive) L1 copy
  exists, and the duplicate-tag directory entry for that core's way --
  the directory is a *view* of the vault tags in the simulator, so the
  checker carries it as separate state precisely to pin down the
  specification any future refactor (say, a cached or physically
  separate directory) must preserve: no drift, ever;
* one bit of main-memory freshness for the block (stale after a store,
  fresh after a dirty writeback), which powers the lost-update /
  valid-data-source invariant;
* at most one in-flight request ``(core, event)``.  The simulator
  processes transactions atomically, so a single pending slot is
  faithful; what the two-phase structure buys is totality checking --
  a reachable ``(event, state)`` pair with no table entry is reported
  as a deadlock with the trace that reaches it.

:func:`check_concrete_system` ties the table to the simulator that
runs: it replays every transition the search enumerates on a live
``VaultSystem`` and compares each core's vault, L1 and directory state,
and memory's freshness, with the state the table names.
"""

import math
from collections import deque, namedtuple

from repro.coherence.states import (
    INVALID, EXCLUSIVE, OWNED, MODIFIED, state_name)
from repro.verify.protocol_spec import (
    LOAD, STORE, EVICT, L1_EVICT, L1_FILL, L1_DROP, MEM_STALE,
    MEM_WRITEBACK, build_table)

#: One core's view of the block: vault coherence state, whether an L1
#: copy exists, and the duplicate-tag directory entry for this core's
#: way (must always mirror ``vault``).
CoreView = namedtuple("CoreView", "vault l1 dir")

#: A global protocol state: per-core views, memory freshness, and the
#: in-flight request ``(core, event)`` or None (quiescent).
State = namedtuple("State", "cores mem_fresh pending")

_DIRTY = (MODIFIED, OWNED)
_OWNERISH = (MODIFIED, OWNED)


def initial_state(num_cores):
    """The reset state: no copies anywhere, memory fresh, no request."""
    view = CoreView(INVALID, False, INVALID)
    return State((view,) * num_cores, True, None)


def format_state(state):
    """Render a :class:`State` as one line, e.g.
    ``C0:M+L1 C1:I mem=stale pending=C1.load``."""
    parts = []
    for c, view in enumerate(state.cores):
        s = state_name(view.vault)
        if view.l1:
            s += "+L1"
        if view.dir != view.vault:
            s += "/dir=%s" % state_name(view.dir)
        parts.append("C%d:%s" % (c, s))
    parts.append("mem=%s" % ("fresh" if state.mem_fresh else "stale"))
    if state.pending is None:
        parts.append("pending=-")
    else:
        parts.append("pending=C%d.%s" % state.pending)
    return " ".join(parts)


class Violation:
    """An invariant violation with its minimal counterexample trace.

    ``trace`` is a list of ``(action, state)`` pairs from the initial
    state to the violating state (the first entry's action is
    ``"init"``).
    """

    def __init__(self, invariant, message, state, trace):
        self.invariant = invariant
        self.message = message
        self.state = state
        self.trace = trace

    def format_trace(self):
        """The counterexample as numbered ``action -> state`` lines."""
        lines = ["%s: %s" % (self.invariant, self.message)]
        for i, (action, state) in enumerate(self.trace):
            lines.append("  %2d. %-28s %s" % (i, action,
                                              format_state(state)))
        return "\n".join(lines)

    def __repr__(self):
        return "<Violation %s at %s>" % (self.invariant,
                                         format_state(self.state))


class CheckResult:
    """Outcome of one exhaustive enumeration."""

    #: Violations kept with full traces (the count is exact, the list
    #: is capped so a badly corrupted table cannot blow up memory).
    MAX_STORED_VIOLATIONS = 25

    def __init__(self, protocol, num_cores):
        self.protocol = protocol
        self.num_cores = num_cores
        self.reachable_states = 0
        self.quiescent_states = 0
        self.transitions = 0
        self.violations = []
        self.violation_count = 0

    @property
    def ok(self):
        """True when every reachable state satisfied every invariant."""
        return self.violation_count == 0

    def counterexample(self):
        """The first (minimal) violation's formatted trace, or None."""
        if not self.violations:
            return None
        return self.violations[0].format_trace()

    def summary(self):
        """One-line human summary."""
        return ("%s x %d cores: %d reachable states (%d quiescent), "
                "%d transitions, %d violation(s)"
                % (self.protocol, self.num_cores, self.reachable_states,
                   self.quiescent_states, self.transitions,
                   self.violation_count))

    def as_dict(self):
        """JSON-ready summary (used by the CLI and the run manifest)."""
        return {
            "protocol": self.protocol,
            "num_cores": self.num_cores,
            "reachable_states": self.reachable_states,
            "quiescent_states": self.quiescent_states,
            "transitions": self.transitions,
            "violations": self.violation_count,
            "first_counterexample": self.counterexample(),
        }


class ModelChecker:
    """BFS over every reachable protocol state of a small system.

    Parameters
    ----------
    num_cores:
        System size to enumerate (the state space is exponential in
        this; 2-4 is exhaustive in well under a second).
    protocol:
        'moesi' (SILO) or 'mesi' (the ablation).
    table:
        Optional explicit transition table -- tests pass deliberately
        corrupted tables here and assert the corruption is caught.
    max_states:
        Hard cap on explored states (a mutated table cannot loop
        forever; the seed tables stay orders of magnitude below it).
    """

    def __init__(self, num_cores=2, protocol="moesi", table=None,
                 max_states=2_000_000):
        if num_cores < 2:
            raise ValueError("need at least 2 cores to exercise "
                             "coherence")
        self.num_cores = num_cores
        self.protocol = protocol
        self.table = build_table(protocol) if table is None else table
        self.max_states = max_states

    # -- state expansion ----------------------------------------------

    def _enabled_events(self, view):
        """Events core ``c`` may inject given its view of the block."""
        events = [LOAD, STORE]
        if view.vault != INVALID:
            events.append(EVICT)
        if view.l1:
            events.append(L1_EVICT)
        return events

    def _apply_rule(self, state, core, event, rule):
        """The quiescent state after the protocol handles ``(core,
        event)`` with ``rule``."""
        views = list(state.cores)
        me = views[core]
        peers_holding = [c for c, v in enumerate(views)
                         if c != core and v.vault != INVALID]

        wrote_back = False
        if rule.peers is not None:
            for c in peers_holding:
                v = views[c]
                nxt = rule.peers.get(v.vault)
                if nxt is None:
                    continue
                if isinstance(nxt, tuple):
                    nxt, wb = nxt
                    wrote_back = wrote_back or wb
                views[c] = CoreView(nxt, v.l1 and nxt != INVALID, nxt)

        nxt = rule.requester_next(bool(peers_holding))
        if rule.l1 == L1_FILL:
            l1 = True
        elif rule.l1 == L1_DROP:
            l1 = False
        else:  # L1_KEEP
            l1 = me.l1
        dir_next = nxt if rule.dir_next is None else rule.dir_next
        views[core] = CoreView(nxt, l1, dir_next)

        mem_fresh = state.mem_fresh
        if wrote_back or rule.mem == MEM_WRITEBACK:
            mem_fresh = True
        if rule.mem == MEM_STALE:
            mem_fresh = False
        return State(tuple(views), mem_fresh, None)

    def _successors(self, state):
        """Yield ``(action_label, next_state)``; ``next_state`` is None
        for a deadlock (no rule for the pending request)."""
        if state.pending is None:
            for c, view in enumerate(state.cores):
                for ev in self._enabled_events(view):
                    yield ("C%d issues %s" % (c, ev),
                           State(state.cores, state.mem_fresh, (c, ev)))
            return
        core, event = state.pending
        rule = self.table.get((event, state.cores[core].vault))
        if rule is None:
            yield ("no rule for (%s, %s)"
                   % (event, state_name(state.cores[core].vault)), None)
            return
        yield ("protocol serves C%d.%s" % (core, event),
               self._apply_rule(state, core, event, rule))

    # -- invariants ----------------------------------------------------

    def _check_invariants(self, state):
        """All ``(invariant, message)`` violations of one state."""
        found = []
        holders = [(c, v.vault) for c, v in enumerate(state.cores)
                   if v.vault != INVALID]
        m_holders = [c for c, s in holders if s == MODIFIED]
        if m_holders and len(holders) > 1:
            found.append(("swmr",
                          "core %d holds M but %d copies exist"
                          % (m_holders[0], len(holders))))
        owners = [c for c, s in holders if s in _OWNERISH]
        if len(owners) > 1:
            found.append(("single_owner",
                          "cores %s all own the block" % (owners,)))
        e_holders = [c for c, s in holders if s == EXCLUSIVE]
        if e_holders and len(holders) > 1:
            found.append(("exclusive_sole",
                          "core %d holds E alongside %d other cop%s"
                          % (e_holders[0], len(holders) - 1,
                             "y" if len(holders) == 2 else "ies")))
        for c, v in enumerate(state.cores):
            if v.dir != v.vault:
                found.append(("directory_mirror",
                              "directory way of core %d says %s but the "
                              "vault holds %s"
                              % (c, state_name(v.dir),
                                 state_name(v.vault))))
            if v.l1 and v.vault == INVALID:
                found.append(("inclusion",
                              "core %d has an L1 copy with no vault "
                              "copy" % c))
        if not state.mem_fresh and not any(s in _DIRTY
                                           for _, s in holders):
            found.append(("data_source",
                          "memory is stale and no owner (M/O) holds "
                          "the block: the last write was lost"))
        return found

    # -- search --------------------------------------------------------

    def run(self):
        """Enumerate the reachable state space; returns a
        :class:`CheckResult`."""
        result = CheckResult(self.protocol, self.num_cores)
        init = initial_state(self.num_cores)
        parent = {init: None}   # state -> (prev_state, action) | None
        frontier = deque([init])
        while frontier:
            state = frontier.popleft()
            result.reachable_states += 1
            if state.pending is None:
                result.quiescent_states += 1
            bad = self._check_invariants(state)
            if bad:
                for invariant, message in bad:
                    self._record(result, invariant, message, state,
                                 parent)
                continue  # do not expand past a violation
            for action, nxt in self._successors(state):
                result.transitions += 1
                if nxt is None:
                    self._record(result, "deadlock",
                                 "pending request cannot be served: "
                                 + action, state, parent)
                    continue
                if nxt not in parent:
                    if len(parent) >= self.max_states:
                        raise RuntimeError(
                            "state space exceeded max_states=%d (is "
                            "the transition table corrupted into an "
                            "infinite family of states?)"
                            % self.max_states)
                    parent[nxt] = (state, action)
                    frontier.append(nxt)
        return result

    def _record(self, result, invariant, message, state, parent):
        result.violation_count += 1
        if len(result.violations) >= CheckResult.MAX_STORED_VIOLATIONS:
            return
        trace = []
        cursor = state
        while cursor is not None:
            link = parent[cursor]
            if link is None:
                trace.append(("init", cursor))
                cursor = None
            else:
                prev, action = link
                trace.append((action, cursor))
                cursor = prev
        trace.reverse()
        result.violations.append(
            Violation(invariant, message, state, trace))


def check_protocol(num_cores=2, protocol="moesi", table=None):
    """Exhaustively check ``protocol`` at ``num_cores``; returns the
    :class:`CheckResult` (``result.ok`` iff violation-free)."""
    return ModelChecker(num_cores=num_cores, protocol=protocol,
                        table=table).run()


#: The block every replay tracks; the accesses that displace it reach
#: other blocks (see :func:`check_concrete_system`).
_BLOCK = 0


def _replay_system(num_cores, protocol):
    """A live vault system for the replay: the smallest square mesh
    holding ``num_cores`` tiles, a 2-way L1 of 32 sets and a vault of
    128, so a block can leave the L1 while its vault set keeps it."""
    from repro.cores.perf_model import CoreParams
    from repro.sim.config import HierarchyConfig
    from repro.sim.system import System

    tiles = (math.isqrt(num_cores - 1) + 1) ** 2
    config = HierarchyConfig(
        name="verify", num_cores=tiles, scale=1,
        l1_size_bytes=64 * 64, l1_ways=2,
        llc_kind="private_vault", llc_size_bytes=128 * 64,
        llc_latency=23, memory_queueing=False, protocol=protocol)
    return System(config, [CoreParams()] * tiles)


def _drive(system, core, event):
    """Inject ``event`` at ``core`` for the tracked block; returns
    whether memory took a writeback (only the tracked block is ever
    dirty, so any write is its)."""
    writes = system.memory.writes
    if event in (LOAD, STORE):
        system.access(core, _BLOCK, event == STORE, False)
    elif event == EVICT:
        # A block of the same vault set that only this core touches.
        system.access(core, _BLOCK + system.vaults[core].num_sets
                      * (core + 1), False, False)
    else:
        # Two blocks of the block's L1 set in other vault sets: the
        # 2-way set keeps them and drops the block.
        l1_sets = system.l1d[core].num_sets
        for k in (1, 2):
            system.access(core, _BLOCK + k * l1_sets, False, False)
    return system.memory.writes > writes


def _live_views(system):
    """Every core's :class:`CoreView` of the tracked block."""
    directory = dict(system.directory.holder_states(_BLOCK))
    views = []
    for c, vault in enumerate(system.vaults):
        s = vault.set_index(_BLOCK)
        views.append(CoreView(
            vault.states[s] if vault.tags[s] == _BLOCK else INVALID,
            system.l1d[c].contains(_BLOCK),
            directory.get(c, INVALID)))
    return tuple(views)


def check_concrete_system(num_cores=2, protocol="moesi"):
    """Replay every transition the model checker enumerates on a live
    :class:`~repro.sim.system.VaultSystem` of ``protocol``.

    Breadth-first over the spec's quiescent states: every enabled
    ``(core, event)`` of each is driven on a new system after the path
    that reached the state -- ``load`` and ``store`` as an
    access to the tracked block, ``evict`` as an access that conflicts
    with it in the core's vault, ``l1_evict`` as two accesses that
    displace it from the core's L1 only -- and each core's vault state,
    L1 presence and directory entry, and memory's freshness (stale
    after a store, fresh after a writeback), are compared with the
    spec's next state.  Tiles the mesh adds beyond ``num_cores`` stay
    idle and must hold nothing.

    Returns ``(transitions, mismatches)``: the number of transitions
    replayed, and one line per mismatch naming its path from reset
    (the replay does not go past a mismatch).
    """
    checker = ModelChecker(num_cores=num_cores, protocol=protocol)
    blank = CoreView(INVALID, False, INVALID)
    init = initial_state(num_cores)
    frontier = deque([(init, ())])
    seen = {init}
    transitions = 0
    mismatches = []
    while frontier:
        state, path = frontier.popleft()
        for core, view in enumerate(state.cores):
            for event in checker._enabled_events(view):
                rule = checker.table[(event, view.vault)]
                spec = checker._apply_rule(state, core, event, rule)
                # Systems are cheap to build: each transition replays
                # its whole path on a new one.
                step = path + ((core, event),)
                live = _replay_system(num_cores, protocol)
                for c, e in path:
                    _drive(live, c, e)
                wrote_back = _drive(live, core, event)
                fresh = event != STORE and (state.mem_fresh or wrote_back)
                transitions += 1
                views = _live_views(live)
                idle = (blank,) * (len(views) - num_cores)
                if views != spec.cores + idle or fresh != spec.mem_fresh:
                    mismatches.append("%s: simulator %s, spec %s" % (
                        " ".join("C%d.%s" % ce for ce in step),
                        format_state(State(views, fresh, None)),
                        format_state(spec)))
                elif spec not in seen:
                    seen.add(spec)
                    frontier.append((spec, step))
    return transitions, mismatches
