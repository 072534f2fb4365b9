"""Generic set-associative cache.

Stores block numbers (byte address >> 6) with an opaque per-block state
(coherence state int for L1s, a dirty flag for data-only LLCs).  Sets
are dicts keyed by block number; LRU order is the dict insertion order:
a touched block moves to the back, and a full set evicts its first key.
"""

from repro.params import BLOCK_BYTES


def whole_sets(size_bytes, ways, line_bytes=BLOCK_BYTES):
    """Sets in ``size_bytes`` of ``ways``-way sets of ``line_bytes``
    lines; raises ValueError unless that is a positive whole number.
    Every cache class sizes itself with this, and
    :meth:`repro.sim.config.HierarchyConfig.check_geometry` runs the
    same checks on a scaled system before anything is built."""
    if size_bytes <= 0 or ways <= 0:
        raise ValueError("size and ways must be positive")
    if size_bytes % (ways * line_bytes):
        raise ValueError(
            "capacity %dB does not hold a whole number of %d-way sets "
            "of %dB lines" % (size_bytes, ways, line_bytes))
    return size_bytes // (ways * line_bytes)


class SetAssocCache:
    """A ``size_bytes`` set-associative LRU cache of 64-byte blocks.

    Parameters
    ----------
    size_bytes:
        Total capacity.  Must be a multiple of ``ways * block_bytes``
        (see :func:`whole_sets`).
    ways:
        Associativity.
    block_bytes:
        Line size (64 B throughout the paper).
    index_stride:
        Sets are selected by ``(block // index_stride) % num_sets``.
        Banked caches (NUCA) pass the bank count here so that bank
        selection bits are not reused for set indexing.

    ``repro.sim.driver._drive`` probes ``_sets``, ``num_sets`` and
    ``index_stride`` directly to retire trivial L1 hits, repeating
    :meth:`lookup`'s hit path; ``SharedSystem`` in ``repro.sim.system``
    reads a NUCA bank's sets the same way on a miss.
    """

    __slots__ = ("size_bytes", "ways", "block_bytes", "num_sets",
                 "index_stride", "_sets")

    def __init__(self, size_bytes, ways, block_bytes=BLOCK_BYTES,
                 index_stride=1):
        self.num_sets = whole_sets(size_bytes, ways, block_bytes)
        self.size_bytes = size_bytes
        self.ways = ways
        self.block_bytes = block_bytes
        self.index_stride = index_stride
        self._sets = [dict() for _ in range(self.num_sets)]

    @property
    def capacity_blocks(self):
        return self.num_sets * self.ways

    def set_index(self, block):
        """Set holding ``block`` (bank-select bits skipped via
        index_stride)."""
        return (block // self.index_stride) % self.num_sets

    def lookup(self, block, touch=True):
        """Return the block's state, or None on miss.  ``touch`` updates
        recency (skip for coherence probes that should not perturb LRU)."""
        # set_index inlined: this runs once per simulated reference
        entries = self._sets[(block // self.index_stride) % self.num_sets]
        state = entries.get(block)
        if state is not None and touch:
            del entries[block]
            entries[block] = state
        return state

    def contains(self, block):
        """Residency check without touching recency."""
        return block in self._sets[(block // self.index_stride)
                                   % self.num_sets]

    def update(self, block, state):
        """Change a resident block's state without touching recency.
        Raises KeyError if the block is not resident."""
        entries = self._sets[(block // self.index_stride) % self.num_sets]
        if block not in entries:
            raise KeyError("block %d not resident" % block)
        entries[block] = state

    def insert(self, block, state):
        """Insert (or refresh) a block at the MRU position.  Returns the
        evicted ``(victim_block, victim_state)`` pair -- the set's LRU
        block -- or None if no eviction."""
        entries = self._sets[(block // self.index_stride) % self.num_sets]
        if block in entries:
            del entries[block]
            entries[block] = state
            return None
        victim = None
        if len(entries) >= self.ways:
            vblock = next(iter(entries))
            victim = (vblock, entries.pop(vblock))
        entries[block] = state
        return victim

    def insert_cold(self, block, state):
        """Insert a block at the *LRU* position (lowest priority): used
        for speculative copies -- victim replicas, prefetches -- that
        must not displace proven-hot residents on arrival.  Returns the
        evicted (victim_block, victim_state) or None."""
        entries = self._sets[(block // self.index_stride) % self.num_sets]
        if block in entries:
            return None
        victim = None
        if len(entries) >= self.ways:
            vblock = next(iter(entries))
            victim = (vblock, entries.pop(vblock))
        # rebuild with the new block in front (dict order = LRU order)
        old = list(entries.items())
        entries.clear()
        entries[block] = state
        for k, v in old:
            entries[k] = v
        return victim

    def invalidate(self, block):
        """Remove a block; returns its state or None if absent."""
        return self._sets[(block // self.index_stride)
                          % self.num_sets].pop(block, None)

    def blocks(self):
        """Iterate over (block, state) pairs (test/debug helper)."""
        for entries in self._sets:
            for block, state in entries.items():
                yield block, state

    def occupancy(self):
        """Number of resident blocks."""
        return sum(len(entries) for entries in self._sets)

    def clear(self):
        """Drop every resident block."""
        for entries in self._sets:
            entries.clear()
