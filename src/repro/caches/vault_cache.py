"""Direct-mapped die-stacked DRAM vault cache (SILO's private LLC).

Sec. V-A: the vault is block-based and direct-mapped; each 64 B data
block is stored together with its tag as a unified TAD (tag-and-data)
fetch unit, so one DRAM access resolves both tag check and data.  The
vault is inclusive of the core's on-chip caches.

Tags and coherence states are flat lists indexed by set, which doubles
as the physical duplicate-tag directory content (Fig. 9): the directory
way for core ``c`` of set ``s`` IS ``(tags[s], states[s])`` of core
``c``'s vault.
"""

from repro.params import BLOCK_BYTES


class VaultCache:
    """A direct-mapped vault of 64-byte TAD blocks."""

    __slots__ = ("size_bytes", "block_bytes", "num_sets", "tags",
                 "states", "resident", "holder_map", "holder_bit")

    def __init__(self, size_bytes, block_bytes=BLOCK_BYTES):
        if size_bytes <= 0 or size_bytes % block_bytes != 0:
            raise ValueError("vault size must be a positive multiple of "
                             "the block size")
        self.size_bytes = size_bytes
        self.block_bytes = block_bytes
        self.num_sets = size_bytes // block_bytes
        self.tags = [-1] * self.num_sets     # -1 == invalid
        self.states = [0] * self.num_sets
        self.resident = 0                    # valid sets (O(1) occupancy)
        # Optional DupTagDirectory residency index (block -> core
        # bitmask) this vault keeps current; ``holder_bit`` is this
        # core's bit.  Set by the directory, validated by its
        # ``check_consistent``.
        self.holder_map = None
        self.holder_bit = 0

    @property
    def capacity_blocks(self):
        return self.num_sets

    def set_index(self, block):
        return block % self.num_sets

    def lookup(self, block):
        """Return the coherence state if the block is resident, else None."""
        s = block % self.num_sets
        if self.tags[s] == block:
            return self.states[s]
        return None

    def contains(self, block):
        return self.tags[block % self.num_sets] == block

    def update(self, block, state):
        s = block % self.num_sets
        if self.tags[s] != block:
            raise KeyError("block %d not resident in vault" % block)
        self.states[s] = state

    def insert(self, block, state):
        """Fill a block; returns the evicted (victim_block, victim_state)
        or None.  A direct-mapped fill always evicts the set's current
        resident (if any and different)."""
        s = block % self.num_sets
        old_tag = self.tags[s]
        victim = None
        if old_tag == -1:
            self.resident += 1
        elif old_tag != block:
            victim = (old_tag, self.states[s])
        self.tags[s] = block
        self.states[s] = state
        hm = self.holder_map
        if hm is not None:
            bit = self.holder_bit
            if victim is not None:
                vb = victim[0]
                left = hm[vb] & ~bit
                if left:
                    hm[vb] = left
                else:
                    del hm[vb]
            hm[block] = hm.get(block, 0) | bit
        return victim

    def invalidate(self, block):
        s = block % self.num_sets
        if self.tags[s] == block:
            state = self.states[s]
            self.tags[s] = -1
            self.states[s] = 0
            self.resident -= 1
            hm = self.holder_map
            if hm is not None:
                left = hm[block] & ~self.holder_bit
                if left:
                    hm[block] = left
                else:
                    del hm[block]
            return state
        return None

    def blocks(self):
        for s, tag in enumerate(self.tags):
            if tag != -1:
                yield tag, self.states[s]

    def metadata_word(self, set_index):
        """The set's tag+state metadata packed into one 64-bit word.

        This is the word the SECDED model protects for tag-array
        faults (repro.faults.ecc); the directory view exposes the same
        packing per logical way via ``entry_word``.
        """
        from repro.faults import ecc
        return ecc.pack_entry(self.tags[set_index],
                              self.states[set_index])

    def occupancy(self):
        """Number of valid sets, tracked incrementally -- the windowed
        telemetry heatmap samples this once per vault per window, so it
        must not scan the tag array."""
        return self.resident

    def clear(self):
        hm = self.holder_map
        if hm is not None:
            bit = self.holder_bit
            for tag in self.tags:
                if tag == -1:
                    continue
                left = hm[tag] & ~bit
                if left:
                    hm[tag] = left
                else:
                    del hm[tag]
        self.tags = [-1] * self.num_sets
        self.states = [0] * self.num_sets
        self.resident = 0
