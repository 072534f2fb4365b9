"""L1 sharer tracking for the baseline's directory (non-inclusive MESI).

The baseline LLC is non-inclusive, so L1 presence cannot be derived
from LLC contents; a sharer table (the directory's sharing vector)
records, per block, the bitmask of cores with an L1 copy and the core
holding it dirty (M), if any.
"""


class SharerTable:
    """Per-block L1 presence: sharers bitmask + exclusive/dirty owner."""

    NO_OWNER = -1

    def __init__(self, num_cores):
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        self.num_cores = num_cores
        # block -> [sharers_mask, owner]; owner is the core holding the
        # block in M/E, or NO_OWNER.
        self._entries = {}

    def sharers(self, block):
        """Bitmask of cores with an L1 copy of the block."""
        entry = self._entries.get(block)
        return entry[0] if entry else 0

    def owner(self, block):
        """Core holding the block in M/E, or NO_OWNER."""
        entry = self._entries.get(block)
        return entry[1] if entry else self.NO_OWNER

    def sharer_list(self, block):
        """Cores sharing the block, as a list."""
        mask = self.sharers(block)
        return [c for c in range(self.num_cores) if mask & (1 << c)]

    def add_sharer(self, block, core, exclusive=False):
        """Record that ``core`` now holds the block.  ``exclusive``
        marks it the sole M/E owner."""
        bit = 1 << core
        entry = self._entries.get(block)
        if entry is None:
            entry = [bit, core if exclusive else self.NO_OWNER]
            self._entries[block] = entry
        else:
            entry[0] |= bit
            if exclusive:
                entry[1] = core

    def set_owner(self, block, core):
        """Promote ``core`` to M/E owner (it must already be a sharer)."""
        entry = self._entries.get(block)
        if entry is None or not entry[0] & (1 << core):
            raise KeyError("core %d does not share block %d" % (core, block))
        entry[1] = core

    def clear_owner(self, block):
        """Downgrade the owner (M -> S transition)."""
        entry = self._entries.get(block)
        if entry is not None:
            entry[1] = self.NO_OWNER

    def remove_sharer(self, block, core):
        """Record that ``core`` dropped its copy."""
        entry = self._entries.get(block)
        if entry is None:
            return
        entry[0] &= ~(1 << core)
        if entry[1] == core:
            entry[1] = self.NO_OWNER
        if entry[0] == 0:
            del self._entries[block]

    def drop_block(self, block):
        """Forget all sharing info for a block."""
        self._entries.pop(block, None)

    def is_cached(self, block):
        return block in self._entries

    def __len__(self):
        return len(self._entries)
