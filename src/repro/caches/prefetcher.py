"""Stride data prefetcher (Table II: L1-D has a stride prefetcher).

A per-core table of recent access streams detects constant block-level
strides and, once a stride repeats, predicts the next block.  The system
issues the prediction as a non-blocking fill into the L1-D.
"""


class StridePrefetcher:
    """Stream-based stride detector.

    The detector maps a stream id (high address bits, a proxy for the
    data structure being walked since we have no PCs) to its last block
    and last stride, with a 2-state confidence counter.  A prediction is
    emitted only at full confidence.
    """

    def __init__(self, table_entries=64, region_shift=12, max_stride=8):
        if table_entries <= 0:
            raise ValueError("table_entries must be positive")
        self.table_entries = table_entries
        self.region_shift = region_shift
        self.max_stride = max_stride
        self._table = {}  # stream id -> [last_block, stride, confidence]
        self.issued = 0

    def observe(self, block):
        """Record a demand access; return the predicted next block to
        prefetch, or None."""
        stream = block >> self.region_shift
        entry = self._table.get(stream)
        if entry is None:
            if len(self._table) >= self.table_entries:
                # evict the oldest stream (dict preserves insertion order)
                self._table.pop(next(iter(self._table)))
            self._table[stream] = [block, 0, 0]
            return None
        last_block, last_stride, confidence = entry
        stride = block - last_block
        entry[0] = block
        if stride == 0:
            return None
        if abs(stride) > self.max_stride:
            entry[1] = 0
            entry[2] = 0
            return None
        if stride == last_stride:
            if confidence >= 1:
                self.issued += 1
                return block + stride
            entry[2] = confidence + 1
        else:
            entry[1] = stride
            entry[2] = 0
        return None

    def reset(self):
        """Drop learned streams and zero the counters."""
        self._table.clear()
        self.reset_stats()

    def reset_stats(self):
        """Zero the counters only (learned strides are architectural
        state and survive a post-warmup stats reset)."""
        self.issued = 0
