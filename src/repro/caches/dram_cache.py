"""Conventional page-based die-stacked DRAM cache (Baseline+DRAM$).

Sec. VI-A: the baseline's 8 GB DRAM cache is hardware managed,
page-based and direct-mapped, the organization considered
state-of-the-art for servers [29, 30].  Per the paper's optimistic
assumptions it has perfect miss prediction (a miss costs no probe) and
infinite bandwidth; its hit latency is 40 ns -- 20% faster than main
memory.
"""

from repro.params import BLOCK_BYTES, TRAD_DRAM_CACHE_PAGE_BYTES
from repro.caches.sram_cache import whole_sets


class PageDRAMCache:
    """A direct-mapped cache of DRAM pages (4 KB by default).

    State per page is a dirty flag.  Footprint effects inside a page are
    ignored (the page either hits or misses as a unit), consistent with
    the footprint-cache style management the paper assumes [29].
    """

    def __init__(self, size_bytes, page_bytes=TRAD_DRAM_CACHE_PAGE_BYTES,
                 block_bytes=BLOCK_BYTES):
        self.blocks_per_page = whole_sets(page_bytes, 1, block_bytes)
        self.num_pages = whole_sets(size_bytes, 1, page_bytes)
        self.size_bytes = size_bytes
        self.page_bytes = page_bytes
        self.tags = [-1] * self.num_pages
        self.dirty = [False] * self.num_pages

    def lookup_block(self, block):
        """True if the block's page is resident."""
        page = block // self.blocks_per_page
        return self.tags[page % self.num_pages] == page

    def touch_write(self, block):
        """Mark the block's page dirty (must be resident)."""
        page = block // self.blocks_per_page
        idx = page % self.num_pages
        if self.tags[idx] != page:
            raise KeyError("page of block %d not resident" % block)
        self.dirty[idx] = True

    def fill(self, block, dirty=False):
        """Bring the block's page in.  Returns the evicted
        (victim_page, was_dirty) or None."""
        page = block // self.blocks_per_page
        idx = page % self.num_pages
        old = self.tags[idx]
        victim = None
        if old != -1 and old != page:
            victim = (old, self.dirty[idx])
        self.tags[idx] = page
        self.dirty[idx] = dirty
        return victim

    def invalidate_page(self, page):
        idx = page % self.num_pages
        if self.tags[idx] == page:
            was_dirty = self.dirty[idx]
            self.tags[idx] = -1
            self.dirty[idx] = False
            return was_dirty
        return None

    def occupancy_pages(self):
        return sum(1 for t in self.tags if t != -1)
