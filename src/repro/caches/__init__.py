"""Cache substrates: SRAM set-associative LRU caches, the shared S-NUCA
LLC, direct-mapped TAD DRAM vaults, the conventional page-based DRAM
cache, and a stride prefetcher."""

from repro.caches.sram_cache import SetAssocCache
from repro.caches.vault_cache import VaultCache
from repro.caches.nuca import SharedNUCA
from repro.caches.dram_cache import PageDRAMCache
from repro.caches.prefetcher import StridePrefetcher

__all__ = [
    "SetAssocCache",
    "VaultCache",
    "SharedNUCA",
    "PageDRAMCache",
    "StridePrefetcher",
]
