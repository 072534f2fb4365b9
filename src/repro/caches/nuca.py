"""Shared static-NUCA LLC: address-interleaved banks on the mesh.

The baseline's 8 MB LLC is split into 16 banks, one per mesh tile
(Table II).  A block's bank is fixed by address interleaving (S-NUCA),
so a request from core ``c`` pays the mesh round trip to the bank tile
plus the bank access latency.
"""

from repro.params import BLOCK_BYTES
from repro.caches.sram_cache import SetAssocCache, whole_sets


class SharedNUCA:
    """An address-interleaved banked shared LLC.

    The LLC stores data blocks with a dirty flag as state (coherence
    among L1s is tracked separately by the sharer table).
    """

    def __init__(self, size_bytes, ways, num_banks, bank_latency,
                 block_bytes=BLOCK_BYTES):
        bank_bytes, ways = self.bank_geometry(size_bytes, ways, num_banks,
                                              block_bytes)
        self.size_bytes = size_bytes
        self.num_banks = num_banks
        self.bank_latency = bank_latency
        self.ways = ways
        self.banks = [SetAssocCache(bank_bytes, ways, block_bytes,
                                    index_stride=num_banks)
                      for _ in range(num_banks)]

    @staticmethod
    def bank_geometry(size_bytes, ways, num_banks, block_bytes=BLOCK_BYTES):
        """``(bytes, ways)`` of each of ``num_banks`` banks; raises
        ValueError unless every bank holds a whole number of sets."""
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        if size_bytes % num_banks != 0:
            raise ValueError("LLC size must divide evenly across banks")
        bank_bytes = size_bytes // num_banks
        bank_blocks = bank_bytes // block_bytes
        if bank_blocks < 1:
            raise ValueError("banks would hold no blocks")
        # Tiny (aggressively scaled) banks cannot sustain the nominal
        # associativity; clamp so each bank keeps at least one set.
        ways = min(ways, bank_blocks)
        whole_sets(bank_bytes, ways, block_bytes)
        return bank_bytes, ways

    @property
    def capacity_blocks(self):
        return sum(b.capacity_blocks for b in self.banks)

    def bank_of(self, block):
        """Bank (== mesh tile) holding the block, by address interleave."""
        return block % self.num_banks

    def lookup(self, block, touch=True):
        return self.banks[block % self.num_banks].lookup(block, touch)

    def contains(self, block):
        return self.banks[block % self.num_banks].contains(block)

    def update(self, block, state):
        self.banks[block % self.num_banks].update(block, state)

    def insert(self, block, state):
        return self.banks[block % self.num_banks].insert(block, state)

    def invalidate(self, block):
        return self.banks[block % self.num_banks].invalidate(block)

    def occupancy(self):
        return sum(b.occupancy() for b in self.banks)

    def blocks(self):
        for bank in self.banks:
            yield from bank.blocks()
