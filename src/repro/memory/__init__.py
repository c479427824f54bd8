"""Memory substrate: address space, shadow metadata space, caches, hierarchy.

The paper places per-pointer identifier metadata in a *disjoint shadow space*
inside the program's virtual address space (§3.3), accessed through the normal
translation machinery, and adds a small dedicated *lock location cache* as a
peer of the L1 caches (§4.2, Figure 4c).  This package provides those pieces
plus the Table 2 cache hierarchy used by the timing model.
"""

from repro.memory.address_space import AddressSpace, AddressSpaceLayout, Segment
from repro.memory.shadow import ShadowSpace
from repro.memory.pages import PageAccountant, PAGE_SIZE
from repro.memory.cache import Cache, CacheConfig
from repro.memory.tlb import TLB, TLBConfig
from repro.memory.prefetcher import StreamPrefetcher, PrefetcherConfig
from repro.memory.hierarchy import MemoryHierarchy, HierarchyConfig, PortKind

__all__ = [
    "AddressSpace",
    "AddressSpaceLayout",
    "Segment",
    "ShadowSpace",
    "PageAccountant",
    "PAGE_SIZE",
    "Cache",
    "CacheConfig",
    "TLB",
    "TLBConfig",
    "StreamPrefetcher",
    "PrefetcherConfig",
    "MemoryHierarchy",
    "HierarchyConfig",
    "PortKind",
]
