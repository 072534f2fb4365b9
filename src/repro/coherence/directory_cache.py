"""A realistic SRAM directory cache (Gupta et al. [25], Sec. V-C).

SILO's duplicate-tag directory lives in DRAM; a directory cache keeps
recently-used directory *sets* in SRAM at the home node so a lookup
can skip the DRAM access.  Unlike the paper's ideal variant (always
hits, zero cost), this model tracks a bounded number of set indices per
home node with LRU replacement: a hit skips the DRAM directory latency,
a miss pays it (plus nothing extra -- the SRAM probe is folded into the
router traversal).

Because our duplicate-tag directory is a *view* of the vault tag arrays
(always current), the cached entry never goes stale; what the cache
models is purely whether the metadata was available in SRAM.
"""


class DirectoryCache:
    """Per-home-node LRU caches of directory set indices."""

    def __init__(self, num_nodes, sets_per_node=1024):
        if num_nodes <= 0 or sets_per_node <= 0:
            raise ValueError("num_nodes and sets_per_node must be "
                             "positive")
        self.num_nodes = num_nodes
        self.sets_per_node = sets_per_node
        self._cached = [dict() for _ in range(num_nodes)]
        self.hits = 0
        self.misses = 0

    def lookup(self, home, dir_set):
        """True if the set's metadata is in SRAM at the home node; the
        set is (re)installed either way (allocate-on-miss)."""
        cache = self._cached[home]
        hit = dir_set in cache
        if hit:
            del cache[dir_set]
            self.hits += 1
        else:
            self.misses += 1
            if len(cache) >= self.sets_per_node:
                cache.pop(next(iter(cache)))
        cache[dir_set] = True
        return hit

    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def invalidate(self, home, dir_set):
        self._cached[home].pop(dir_set, None)

    def reset_stats(self):
        """Zero the hit/miss counters (cached set indices survive)."""
        self.hits = 0
        self.misses = 0
