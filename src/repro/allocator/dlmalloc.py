"""A DL-malloc-style heap allocator.

The paper's evaluation uses a modified DL-malloc (§9.1).  The property of
DL-malloc that matters for Watchdog is *reuse*: freed memory is promptly
recycled for later allocations of similar size, which is exactly the scenario
in which location-based checkers lose track of dangling pointers and
identifier-based checkers do not (§2).  This module implements a boundary-tag
allocator with segregated size bins and immediate coalescing of adjacent free
chunks, operating on the heap segment of the simulated address space.

Addresses returned are always 16-byte aligned (so pointers stored in
allocations are word aligned, an assumption of the shadow-space scheme,
§3.3).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import AllocatorError, OutOfMemoryError
from repro.memory.address_space import AddressSpace, Segment

ALIGNMENT = 16
MIN_CHUNK = 32

#: Size-class upper bounds for the segregated bins (bytes).  Requests above
#: the last bound go to the "large" bin which is kept sorted by size.
BIN_BOUNDS = (32, 64, 128, 256, 512, 1024, 4096, 16384, 65536)


def _round_up(size: int, alignment: int = ALIGNMENT) -> int:
    return (size + alignment - 1) & ~(alignment - 1)


@dataclass
class _Chunk:
    """A contiguous region of heap, either free or allocated."""

    base: int
    size: int
    free: bool = True

    @property
    def end(self) -> int:
        return self.base + self.size


@dataclass
class AllocatorStats:
    """Counters describing allocator behaviour."""

    mallocs: int = 0
    frees: int = 0
    bytes_requested: int = 0
    bytes_allocated: int = 0
    peak_live_bytes: int = 0
    live_bytes: int = 0
    reuses: int = 0
    splits: int = 0
    coalesces: int = 0


class DlMallocAllocator:
    """Boundary-tag free-list allocator with segregated size bins."""

    def __init__(self, memory: AddressSpace, heap: Optional[Segment] = None):
        self.memory = memory
        self.heap = heap or memory.layout.heap
        self._wilderness = self.heap.base
        #: base address -> chunk for every chunk carved so far.
        self._chunks: Dict[int, _Chunk] = {}
        #: free chunks per bin index: list of (size, base) kept sorted.
        self._bins: List[List[Tuple[int, int]]] = [[] for _ in range(len(BIN_BOUNDS) + 1)]
        #: end address -> base of a *free* chunk, for O(1) backward coalescing.
        self._free_by_end: Dict[int, int] = {}
        self.stats = AllocatorStats()

    # -- bins ------------------------------------------------------------------
    @staticmethod
    def _bin_index(size: int) -> int:
        for i, bound in enumerate(BIN_BOUNDS):
            if size <= bound:
                return i
        return len(BIN_BOUNDS)

    def _bin_insert(self, chunk: _Chunk) -> None:
        entry = (chunk.size, chunk.base)
        bisect.insort(self._bins[self._bin_index(chunk.size)], entry)
        self._free_by_end[chunk.end] = chunk.base

    def _bin_remove(self, chunk: _Chunk) -> None:
        bin_list = self._bins[self._bin_index(chunk.size)]
        index = bisect.bisect_left(bin_list, (chunk.size, chunk.base))
        if index < len(bin_list) and bin_list[index] == (chunk.size, chunk.base):
            bin_list.pop(index)
        if self._free_by_end.get(chunk.end) == chunk.base:
            del self._free_by_end[chunk.end]

    def _find_free(self, size: int) -> Optional[_Chunk]:
        """Best-fit search starting from the request's bin."""
        for bin_index in range(self._bin_index(size), len(self._bins)):
            for chunk_size, base in self._bins[bin_index]:
                if chunk_size >= size:
                    chunk = self._chunks[base]
                    self._bin_remove(chunk)
                    return chunk
        return None

    # -- malloc / free -----------------------------------------------------------
    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; return the (16-byte-aligned) base address."""
        if size <= 0:
            raise AllocatorError(f"malloc size must be positive, got {size}")
        request = max(_round_up(size), MIN_CHUNK)
        chunk = self._find_free(request)
        if chunk is not None:
            self.stats.reuses += 1
            chunk.free = False
            self._maybe_split(chunk, request)
        else:
            chunk = self._extend_wilderness(request)
        self.stats.mallocs += 1
        self.stats.bytes_requested += size
        self.stats.bytes_allocated += chunk.size
        self.stats.live_bytes += chunk.size
        self.stats.peak_live_bytes = max(self.stats.peak_live_bytes,
                                         self.stats.live_bytes)
        return chunk.base

    def _extend_wilderness(self, request: int) -> _Chunk:
        base = self._wilderness
        if base + request > self.heap.limit:
            raise OutOfMemoryError(
                f"heap exhausted: need {request} bytes at {base:#x}")
        self._wilderness += request
        chunk = _Chunk(base=base, size=request, free=False)
        self._chunks[base] = chunk
        return chunk

    def _maybe_split(self, chunk: _Chunk, request: int) -> None:
        """Split the tail of an oversized chunk back into the free lists."""
        if chunk.size - request < MIN_CHUNK:
            return
        remainder = _Chunk(base=chunk.base + request, size=chunk.size - request,
                           free=True)
        chunk.size = request
        self._chunks[remainder.base] = remainder
        self._bin_insert(remainder)
        self.stats.splits += 1

    def free(self, address: int) -> int:
        """Free the chunk at ``address``; return the size that was freed."""
        chunk = self._chunks.get(address)
        if chunk is None or chunk.free:
            raise AllocatorError(f"free of invalid or already-free chunk {address:#x}")
        chunk.free = True
        self.stats.frees += 1
        self.stats.live_bytes -= chunk.size
        size = chunk.size
        chunk = self._coalesce(chunk)
        self._bin_insert(chunk)
        return size

    def _coalesce(self, chunk: _Chunk) -> _Chunk:
        """Merge ``chunk`` with free neighbours (boundary-tag coalescing)."""
        successor = self._chunks.get(chunk.end)
        if successor is not None and successor.free:
            self._bin_remove(successor)
            del self._chunks[successor.base]
            chunk.size += successor.size
            self.stats.coalesces += 1
        predecessor_base = self._free_by_end.get(chunk.base)
        predecessor = self._chunks.get(predecessor_base) if predecessor_base is not None else None
        if predecessor is not None and predecessor.free:
            self._bin_remove(predecessor)
            del self._chunks[chunk.base]
            predecessor.size += chunk.size
            self.stats.coalesces += 1
            return predecessor
        return chunk

    # -- introspection -----------------------------------------------------------
    def chunk_size(self, address: int) -> int:
        """Size of the allocated chunk at ``address``."""
        chunk = self._chunks.get(address)
        if chunk is None:
            raise AllocatorError(f"no chunk at {address:#x}")
        return chunk.size

    def is_allocated(self, address: int) -> bool:
        """True if ``address`` is the base of a currently-allocated chunk."""
        chunk = self._chunks.get(address)
        return chunk is not None and not chunk.free

    def owns(self, address: int) -> bool:
        """True if ``address`` falls inside any chunk ever carved (allocated
        or free) — i.e. inside the heap's used extent."""
        return self.heap.base <= address < self._wilderness
