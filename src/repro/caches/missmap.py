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
segments are treated as "unknown" and the probe is performed.

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
            mask = 0
            if len(self._map) >= self.max_segments:
                self._map.pop(next(iter(self._map)))
                self.evicted_segments += 1
        self._map[seg] = mask | self._bit(block)

    def record_eviction(self, block):
        """The block left the vault.  The segment entry is kept even
        when its mask empties: an all-zero tracked segment still
        provides useful known-miss predictions."""
        seg = self._segment(block)
        mask = self._map.get(seg)
        if mask is None:
            return
        self._map[seg] = mask & ~self._bit(block)

    def tracked_segments(self):
        """Number of segments with a live presence bit-vector."""
        return len(self._map)

    def reset_stats(self):
        """Zero the prediction counters (tracked segments survive:
        they are architectural state, not measurement)."""
        self.known_misses = 0
        self.unknown = 0
        self.evicted_segments = 0

    def register_stats(self, group):
        """Register this MissMap's counters under a stats group."""
        group.bind(self, "known_misses",
                   desc="probes skipped on predicted misses")
        group.bind(self, "unknown",
                   desc="lookups outside tracked segments")
        group.bind(self, "evicted_segments",
                   desc="segment entries displaced (residency "
                        "knowledge lost)")
        return group

    def storage_bits(self):
        """SRAM cost: tag (~28b) + bit-vector per segment entry."""
        return self.max_segments * (28 + self.blocks_per_segment)


def default_missmap_for(vault_blocks, coverage=4.0):
    """Size a MissMap to cover ``coverage`` times the vault's capacity
    (the paper's MissMap covers a multiple of the cache so that
    residency knowledge survives set conflicts)."""
    segments = max(16, int(vault_blocks * coverage) // 64)
    return MissMap(segments=segments, blocks_per_segment=64)
