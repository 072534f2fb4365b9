"""Declarative transition table of SILO's vault coherence protocol.

The simulator implements the protocol operationally, in
``VaultSystem._miss`` (which also fills the vault) / ``_write_upgrade``
/ ``_invalidate_peer_vaults`` / ``_downgrade_supplier`` of
:mod:`repro.sim.system` and the helpers in
:mod:`repro.coherence.states`.  This module re-states it *declaratively*:
one :class:`Rule` per (event, requester-vault-state) pair, covering what
happens to the requester, to every peer vault holding the block, to the
L1 copies (the vault is inclusive of its core's L1s) and to main
memory's freshness.  The model checker enumerates exactly this table;
a protocol change in the simulator must be mirrored here (and survive
the checker) or the dynamic invariant tests will diverge from the spec.

Faithfulness notes, tied to the operational code:

* On a read miss with remote holders the simulator picks *one* supplier
  (``max`` state, M > O > E > S) and downgrades only it via
  ``read_response_states``.  Because M and E exclude other copies, and
  O/S holders map to themselves under the read-response map, applying
  the peer map to *all* holders is equivalent to downgrading only the
  supplier -- which lets the table stay a simple per-state map.
* A store invalidates every peer copy (``_invalidate_peer_vaults``);
  dirty remote data is supplied to the writer, **not** written back, so
  memory stays stale and the writer's M copy is the only valid one --
  the MOESI property SILO relies on (Sec. V-B).
* Under the MESI ablation a dirty holder must write back before a
  reader is served and both end up Shared; ``OWNED`` is unreachable, so
  the MESI table carries no OWNED-keyed rules at all (if a mutation
  makes O reachable the checker reports it as a deadlock).
* Vault evictions (direct-mapped conflict on the set) back-invalidate
  the L1s (inclusion) and write dirty data (M/O) back to memory.
"""

from repro.coherence.states import (
    INVALID, SHARED, EXCLUSIVE, OWNED, MODIFIED, state_name)

# ---------------------------------------------------------------------------
# Events a core can inject (one block; ifetches share the read path)
# ---------------------------------------------------------------------------

LOAD = "load"          #: data read
STORE = "store"        #: data write (miss or upgrade)
EVICT = "evict"        #: direct-mapped vault conflict eviction
L1_EVICT = "l1_evict"  #: the block leaves the L1 only (vault keeps it)

EVENTS = (LOAD, STORE, EVICT, L1_EVICT)

# L1 effect of a rule on the *requester* (peers are automatic: a peer's
# L1 copy survives exactly when its vault copy does, by inclusion).
L1_FILL = "fill"
L1_DROP = "drop"
L1_KEEP = "keep"

# Effect on main memory's freshness for this block.
MEM_KEEP = "keep"            # memory unchanged
MEM_STALE = "stale"          # a write made the memory copy stale
MEM_WRITEBACK = "writeback"  # dirty data written back; memory fresh

#: Invariants the model checker asserts on every reachable state.
INVARIANTS = {
    "swmr": "single-writer/multiple-reader: an M holder excludes every "
            "other copy of the block",
    "single_owner": "at most one owner (M or O) per block",
    "exclusive_sole": "an E holder is the block's only holder",
    "directory_mirror": "the duplicate-tag directory exactly mirrors "
                        "the vault tag arrays (no drift)",
    "inclusion": "every L1-resident block is resident in its core's "
                 "vault",
    "data_source": "a valid data source exists: some owner (M/O) holds "
                   "the block or main memory is fresh",
    "deadlock": "every non-quiescent state has an enabled transition",
}


class Rule:
    """One row of the transition table.

    Parameters
    ----------
    next_alone:
        Requester's next vault state when no other vault holds the
        block.
    next_shared:
        Requester's next vault state when at least one peer holds it
        (defaults to ``next_alone``).
    peers:
        Map ``old_peer_state -> new_peer_state`` applied to every peer
        vault holding the block; a value may also be a
        ``(new_state, True)`` pair to mark a memory writeback taken
        with that peer transition (MESI read-miss downgrade).  ``None``
        or a missing key leaves the peer untouched.
    l1:
        Requester's L1 effect: :data:`L1_FILL`, :data:`L1_DROP` or
        :data:`L1_KEEP`.
    mem:
        Memory-freshness effect: :data:`MEM_KEEP`, :data:`MEM_STALE`
        or :data:`MEM_WRITEBACK`.
    dir_next:
        Requester's duplicate-tag directory entry after the transition;
        ``None`` (the default, and the only correct value) mirrors the
        requester's next vault state.  Overridable so tests can inject
        directory drift and watch the checker catch it.
    """

    __slots__ = ("next_alone", "next_shared", "peers", "l1", "mem",
                 "dir_next")

    def __init__(self, next_alone, next_shared=None, peers=None,
                 l1=L1_FILL, mem=MEM_KEEP, dir_next=None):
        self.next_alone = next_alone
        self.next_shared = (next_alone if next_shared is None
                            else next_shared)
        self.peers = peers
        self.l1 = l1
        self.mem = mem
        self.dir_next = dir_next

    def requester_next(self, has_peers):
        """Requester's next vault state given whether peers hold the
        block."""
        return self.next_shared if has_peers else self.next_alone

    def __repr__(self):
        return ("Rule(alone=%s, shared=%s, peers=%r, l1=%s, mem=%s)"
                % (state_name(self.next_alone),
                   state_name(self.next_shared), self.peers, self.l1,
                   self.mem))


#: Peer map of a store: every remote copy dies (dirty remote data is
#: supplied to the writer, never written back -- Sec. V-B).
_STORE_INVALIDATE = {MODIFIED: INVALID, OWNED: INVALID,
                     EXCLUSIVE: INVALID, SHARED: INVALID}

#: Peer map of a MOESI read miss: ``read_response_states`` -- a dirty
#: supplier keeps ownership as O, a clean one downgrades/stays S.
_MOESI_READ_RESPONSE = {MODIFIED: OWNED, OWNED: OWNED,
                        EXCLUSIVE: SHARED, SHARED: SHARED}

#: Peer map of a MESI read miss: a dirty supplier must write back to
#: memory first; everyone ends up Shared.
_MESI_READ_RESPONSE = {MODIFIED: (SHARED, True), OWNED: (SHARED, True),
                       EXCLUSIVE: SHARED, SHARED: SHARED}


def _common_rules(read_response):
    """Rules shared by MOESI and MESI, parameterized on the read
    response map."""
    table = {
        # -- loads ----------------------------------------------------
        # Miss: fill E when alone (silent-upgrade-ready), S when
        # supplied by a peer.
        (LOAD, INVALID): Rule(next_alone=EXCLUSIVE, next_shared=SHARED,
                              peers=read_response, l1=L1_FILL),
        # Hits: no protocol action beyond the L1 fill.
        (LOAD, SHARED): Rule(SHARED, l1=L1_FILL),
        (LOAD, EXCLUSIVE): Rule(EXCLUSIVE, l1=L1_FILL),
        (LOAD, MODIFIED): Rule(MODIFIED, l1=L1_FILL),

        # -- stores ---------------------------------------------------
        (STORE, INVALID): Rule(MODIFIED, peers=_STORE_INVALIDATE,
                               l1=L1_FILL, mem=MEM_STALE),
        (STORE, SHARED): Rule(MODIFIED, peers=_STORE_INVALIDATE,
                              l1=L1_FILL, mem=MEM_STALE),
        # E means sole holder: silent upgrade, no invalidations.
        (STORE, EXCLUSIVE): Rule(MODIFIED, l1=L1_FILL, mem=MEM_STALE),
        (STORE, MODIFIED): Rule(MODIFIED, l1=L1_FILL, mem=MEM_STALE),

        # -- vault conflict evictions (inclusion back-invalidates L1) -
        (EVICT, SHARED): Rule(INVALID, l1=L1_DROP),
        (EVICT, EXCLUSIVE): Rule(INVALID, l1=L1_DROP),
        (EVICT, MODIFIED): Rule(INVALID, l1=L1_DROP,
                                mem=MEM_WRITEBACK),

        # -- L1-only evictions (vault keeps the block and its state) --
        (L1_EVICT, SHARED): Rule(SHARED, l1=L1_DROP),
        (L1_EVICT, EXCLUSIVE): Rule(EXCLUSIVE, l1=L1_DROP),
        (L1_EVICT, MODIFIED): Rule(MODIFIED, l1=L1_DROP),
    }
    return table


def build_table(protocol="moesi"):
    """The full transition table for ``protocol`` ('moesi' or 'mesi').

    Returns a dict keyed by ``(event, requester_vault_state)``; the
    model checker treats a reachable key with no entry as a deadlock.
    """
    if protocol == "moesi":
        table = _common_rules(_MOESI_READ_RESPONSE)
        table.update({
            (LOAD, OWNED): Rule(OWNED, l1=L1_FILL),
            (STORE, OWNED): Rule(MODIFIED, peers=_STORE_INVALIDATE,
                                 l1=L1_FILL, mem=MEM_STALE),
            (EVICT, OWNED): Rule(INVALID, l1=L1_DROP,
                                 mem=MEM_WRITEBACK),
            (L1_EVICT, OWNED): Rule(OWNED, l1=L1_DROP),
        })
        return table
    if protocol == "mesi":
        # OWNED is unreachable: no OWNED-keyed rules on purpose.
        return _common_rules(_MESI_READ_RESPONSE)
    raise ValueError("unknown protocol %r (choose 'moesi' or 'mesi')"
                     % (protocol,))
