"""Generic set-associative cache.

Stores block numbers (byte address >> 6) with an opaque per-block state
(coherence state int for L1s, a dirty flag for data-only LLCs).  Sets
are dicts keyed by block number; LRU order is the dict insertion order.
"""

from repro.params import BLOCK_BYTES
from repro.caches.replacement import make_policy


class SetAssocCache:
    """A ``size_bytes`` set-associative cache of 64-byte blocks.

    Parameters
    ----------
    size_bytes:
        Total capacity.  Must be a multiple of ``ways * block_bytes``.
    ways:
        Associativity.
    block_bytes:
        Line size (64 B throughout the paper).
    policy:
        Replacement policy name ('lru', 'fifo', 'random').
    index_stride:
        Sets are selected by ``(block // index_stride) % num_sets``.
        Banked caches (NUCA) pass the bank count here so that bank
        selection bits are not reused for set indexing.
    seed / rng:
        Randomized policies draw from ``rng`` (an externally seeded
        ``random.Random``, e.g. the workload generator's) or, when
        None, from a private ``Random(seed)`` -- never from the
        module-level stream, so runs stay reproducible from the
        manifest-recorded seed (silolint SL001).

    ``repro.sim.driver._drive`` probes ``_sets``, ``num_sets``,
    ``index_stride`` and ``_reorder`` directly to retire trivial L1
    hits, repeating :meth:`lookup`'s hit path; ``SharedSystem`` in
    ``repro.sim.system`` reads a NUCA bank's sets the same way on a miss.
    """

    __slots__ = ("size_bytes", "ways", "block_bytes", "num_sets",
                 "index_stride", "policy", "_reorder", "_sets")

    def __init__(self, size_bytes, ways, block_bytes=BLOCK_BYTES,
                 policy="lru", index_stride=1, seed=0, rng=None):
        if size_bytes <= 0 or ways <= 0:
            raise ValueError("size and ways must be positive")
        blocks = size_bytes // block_bytes
        if blocks == 0 or blocks % ways != 0:
            raise ValueError(
                "capacity %dB does not hold a whole number of %d-way sets"
                % (size_bytes, ways))
        self.size_bytes = size_bytes
        self.ways = ways
        self.block_bytes = block_bytes
        self.num_sets = blocks // ways
        self.index_stride = index_stride
        self.policy = make_policy(policy, seed, rng)
        self._reorder = self.policy.reorder_on_hit
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
        if state is None:
            return None
        if touch and self._reorder:
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
        """Insert (or refresh) a block.  Returns the evicted
        ``(victim_block, victim_state)`` pair or None if no eviction."""
        entries = self._sets[(block // self.index_stride) % self.num_sets]
        if block in entries:
            if self._reorder:
                del entries[block]
            entries[block] = state
            return None
        victim = None
        if len(entries) >= self.ways:
            vblock = self.policy.victim(entries)
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
            vblock = self.policy.victim(entries)
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
