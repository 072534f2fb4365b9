"""MissMap: a realistic local-vault miss predictor (Loh & Hill [24]).

Sec. V-C considers a miss predictor that avoids the DRAM probe when an
access is known to miss.  The MissMap is an SRAM structure that tracks,
per memory *segment* (a page-sized region), a presence bit-vector of
the segment's blocks currently resident in the DRAM cache.  It is
precise: bits are set on fill and cleared on eviction, so "bit clear"
is a guaranteed miss (the probe can be skipped) and "bit set" is a
guaranteed hit *as long as the segment is tracked*.  When the MissMap
itself must evict a segment entry, the corresponding blocks' residency
knowledge is lost; to stay conservative (never predict "miss" for a
resident block -- that would break correctness of the skip), untracked
segments are treated as "unknown" and the probe is performed, and a
segment that is tracked again gets back the presence bits of its
still-resident blocks (hardware rebuilds them from the vault's tags),
so a re-created entry never reads a resident block as absent.

The paper's Fig. 12 evaluates the *ideal* predictor; this class lets
the reproduction also measure a realistic one.
"""

from repro.params import BLOCK_BYTES


class MissMap:
    """Per-segment presence bit-vectors with LRU segment replacement."""

    def __init__(self, segments=4096, blocks_per_segment=64):
        if segments <= 0 or blocks_per_segment <= 0:
            raise ValueError("segments and blocks_per_segment must be "
                             "positive")
        self.max_segments = segments
        self.blocks_per_segment = blocks_per_segment
        self._map = {}  # segment -> presence bitmask
        # Evicted segment -> nonzero bits of its still-resident blocks.
        self._lost = {}
        self.known_misses = 0
        self.unknown = 0
        self.evicted_segments = 0

    def _segment(self, block):
        return block // self.blocks_per_segment

    def _bit(self, block):
        return 1 << (block % self.blocks_per_segment)

    def predicts_miss(self, block):
        """True only when the block is *known* absent: its segment is
        tracked and the presence bit is clear."""
        mask = self._map.get(self._segment(block))
        if mask is None:
            self.unknown += 1
            return False
        seg = self._segment(block)
        # LRU touch
        del self._map[seg]
        self._map[seg] = mask
        if mask & self._bit(block):
            return False
        self.known_misses += 1
        return True

    def record_fill(self, block):
        """The block was installed in the vault."""
        seg = self._segment(block)
        mask = self._map.pop(seg, None)
        if mask is None:
            mask = self._lost.pop(seg, 0)
            if len(self._map) >= self.max_segments:
                lru = next(iter(self._map))
                lost = self._map.pop(lru)
                if lost:
                    self._lost[lru] = lost
                self.evicted_segments += 1
        self._map[seg] = mask | self._bit(block)

    def record_eviction(self, block):
        """The block left the vault.  The segment entry is kept even
        when its mask empties: an all-zero tracked segment still
        provides useful known-miss predictions."""
        seg = self._segment(block)
        if seg in self._map:
            self._map[seg] &= ~self._bit(block)
        elif seg in self._lost:
            lost = self._lost[seg] & ~self._bit(block)
            if lost:
                self._lost[seg] = lost
            else:
                del self._lost[seg]

    def reset_stats(self):
        """Zero the prediction counters (tracked segments survive:
        they are architectural state, not measurement)."""
        self.known_misses = 0
        self.unknown = 0
        self.evicted_segments = 0

    def storage_bits(self):
        """SRAM cost: tag (~28b) + bit-vector per segment entry."""
        return self.max_segments * (28 + self.blocks_per_segment)


def default_missmap_for(vault_blocks, coverage=4.0):
    """Size a MissMap to cover ``coverage`` times the vault's capacity
    (the paper's MissMap covers a multiple of the cache so that
    residency knowledge survives set conflicts)."""
    segments = max(16, int(vault_blocks * coverage) // 64)
    return MissMap(segments=segments, blocks_per_segment=64)
