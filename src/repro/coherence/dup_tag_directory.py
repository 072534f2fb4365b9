"""SILO's duplicate-tag directory (Fig. 9).

Logically the directory is an N-way associative tag store where N is
the core count; the way position of an entry identifies the core whose
vault caches the block, so no sharing vector is needed.  Because every
vault is direct-mapped and inclusive of its core's L1s, the directory's
content is *exactly* the concatenation of the vault tag arrays -- so
this class is a view over the vaults rather than a second copy that
could drift out of sync.

Physically the directory metadata is distributed across the vaults in
an address-interleaved fashion: block ``b``'s home node is
``b % num_cores``, and reading its directory set costs one DRAM access
at the home vault (charged by the timing model, see
:class:`repro.sim.system.System`).
"""


class DupTagDirectory:
    """View of the vault tag arrays as an N-way duplicate-tag directory."""

    def __init__(self, vaults):
        if not vaults:
            raise ValueError("need at least one vault")
        sets = vaults[0].num_sets
        if any(v.num_sets != sets for v in vaults):
            raise ValueError("all vaults must have the same set count")
        self.vaults = vaults
        self.num_cores = len(vaults)
        self.num_sets = sets
        # Physical ways currently known corrupt, keyed (set, way) -> True.
        # A dict rather than a set keeps iteration order deterministic.
        self._corrupt = {}
        # Residency index: block -> bitmask of caching cores.  The
        # directory content is still *exactly* the vault tag arrays;
        # this index only inverts them so the per-miss holder probe is
        # O(holders) instead of O(cores).  The vaults keep it current
        # from their mutation methods (``holder_map``/``holder_bit``),
        # and ``check_consistent`` re-derives it to prove no drift.
        self._holders = {}
        for c, v in enumerate(vaults):
            v.holder_map = self._holders
            v.holder_bit = 1 << c
            if not v.resident:
                continue  # cold vault: nothing to index (common case)
            for s, tag in enumerate(v.tags):
                if tag != -1:
                    self._holders[tag] = (self._holders.get(tag, 0)
                                          | (1 << c))

    def home_node(self, block):
        """Node whose vault physically stores this block's directory set."""
        return block % self.num_cores

    def set_index(self, block):
        """Directory set of ``block`` -- the single place this mapping
        lives.  Valid only while the directory's set count equals every
        vault's (``check_consistent`` enforces it)."""
        return block % self.num_sets

    def sharers(self, block):
        """Cores whose vaults currently cache ``block`` (logically a
        read of all N directory ways; served from the residency
        index)."""
        mask = self._holders.get(block, 0)
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def holder_states(self, block):
        """List of (core, state) pairs for vaults caching the block,
        in ascending core order (the index walks bits LSB-first, so
        tie-breaks match the old full-scan exactly)."""
        mask = self._holders.get(block, 0)
        if not mask:
            return []
        s = block % self.num_sets
        vaults = self.vaults
        out = []
        while mask:
            low = mask & -mask
            c = low.bit_length() - 1
            out.append((c, vaults[c].states[s]))
            mask ^= low
        return out

    def is_cached(self, block):
        """True when any vault caches ``block``."""
        return block in self._holders

    def entry(self, block, core):
        """The directory entry (tag, state) at way ``core`` of the
        block's set -- None if that way holds a different block."""
        s = self.set_index(block)
        v = self.vaults[core]
        if v.tags[s] == block:
            return (block, v.states[s])
        return None

    def entry_word(self, set_index, way):
        """Way ``way`` of directory set ``set_index`` packed into the
        64-bit word the SECDED model protects -- tag and state exactly
        as the mirrored vault stores them."""
        from repro.faults import ecc
        vault = self.vaults[way]
        return ecc.pack_entry(vault.tags[set_index],
                              vault.states[set_index])

    def mark_corrupt(self, set_index, way):
        """Record that the physical bits of one directory way were
        corrupted.  ``check_consistent`` fails while any mark is
        outstanding; recovery clears it via :meth:`clear_corrupt`
        (ECC corrected the flip in place) or :meth:`rebuild_set`."""
        self._corrupt[(set_index, way)] = True

    def clear_corrupt(self, set_index, way):
        self._corrupt.pop((set_index, way), None)

    def corrupt_entries(self):
        """Outstanding corrupt (set, way) marks, in insertion order."""
        return list(self._corrupt)

    def rebuild_set(self, set_index):
        """Rebuild one directory set from the vault tag arrays.

        Because the directory *is* a view over the vaults (the
        model-checked mirror invariant), recovery from an
        uncorrectable directory-entry error is well-defined: re-read
        way ``c`` of the set from core ``c``'s vault and rewrite it.
        In this model that amounts to clearing the corruption marks
        for the set; returns the number of ways rewritten.
        """
        if not 0 <= set_index < self.num_sets:
            raise ValueError("set index out of range: %r" % (set_index,))
        for way in range(self.num_cores):
            self._corrupt.pop((set_index, way), None)
        return self.num_cores

    def check_consistent(self):
        """Debug assertion: the directory view matches its vaults.

        Re-validates the constructor's geometry assumption (every vault
        still has ``num_sets`` sets -- the set-index computation in
        :meth:`set_index` silently breaks if a vault is ever resized or
        swapped out) and that every resident tag is stored in the set
        it maps to with a valid (non-INVALID) state.  Used by the model
        checker's concrete companion check and the coherence invariant
        tests; raises AssertionError on drift, returns True otherwise.
        """
        if len(self.vaults) != self.num_cores:
            raise AssertionError("directory built over %d vaults, now "
                                 "sees %d" % (self.num_cores,
                                              len(self.vaults)))
        if self._corrupt:
            raise AssertionError(
                "directory has %d unrecovered corrupt entr%s "
                "(first: set %d way %d)"
                % (len(self._corrupt),
                   "y" if len(self._corrupt) == 1 else "ies",
                   *next(iter(self._corrupt))))
        for c, v in enumerate(self.vaults):
            if v.num_sets != self.num_sets:
                raise AssertionError(
                    "vault %d has %d sets but the directory indexes %d "
                    "(set-index mapping is broken)"
                    % (c, v.num_sets, self.num_sets))
            for s, tag in enumerate(v.tags):
                if tag == -1:
                    continue
                if self.set_index(tag) != s:
                    raise AssertionError(
                        "vault %d stores block %d in set %d, but it "
                        "maps to set %d" % (c, tag, s,
                                            self.set_index(tag)))
                if v.states[s] == 0:
                    raise AssertionError(
                        "vault %d set %d holds tag %d with an INVALID "
                        "state" % (c, s, tag))
                if self.entry(tag, c) != (tag, v.states[s]):
                    raise AssertionError(
                        "directory way %d disagrees with vault %d for "
                        "block %d" % (c, c, tag))
        rebuilt = {}
        for c, v in enumerate(self.vaults):
            for tag in v.tags:
                if tag != -1:
                    rebuilt[tag] = rebuilt.get(tag, 0) | (1 << c)
            if v.holder_map is not self._holders:
                raise AssertionError(
                    "vault %d no longer feeds this directory's "
                    "residency index" % c)
        if rebuilt != self._holders:
            drift = set(rebuilt.items()) ^ set(self._holders.items())
            raise AssertionError(
                "residency index drifted from the vault tag arrays "
                "(%d divergent entr%s, first: %r)"
                % (len(drift), "y" if len(drift) == 1 else "ies",
                   next(iter(sorted(drift)))))
        return True

    def storage_bits_per_entry(self, tag_bits=28, state_bits=3):
        """Size of one directory entry (Fig. 9 shows a tag plus 3 state
        bits)."""
        return tag_bits + state_bits

    def total_entries(self):
        """Capacity of the directory: one entry per vault block across
        all cores (duplicate tags for the full private LLC capacity)."""
        return self.num_cores * self.num_sets
