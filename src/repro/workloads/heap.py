"""The synthetic workload's heap: dlmalloc's placement rules in flat arrays.

A workload only needs three facts from its allocator: where each object
lands, how big a chunk it occupies, and which lock location its identifier
gets.  :class:`WorkloadHeap` computes exactly the answers
:class:`~repro.allocator.dlmalloc.DlMallocAllocator` plus
:class:`~repro.core.identifier.LockLocationAllocator` give — best fit, the
same split and coalescing, LIFO lock recycling — but keeps its whole state
in ``array("q")`` columns, so the native generator kernel
(:mod:`repro.workloads._ffcore`) applies allocation events in place on the
same arrays this module's Python methods use:

* ``state``: the wilderness and heap limit, the lock region's bump pointer
  and limit (the ``H_*`` indices);
* ``free_bases``/``free_sizes``: the free chunks sorted by address;
* ``fit``: the same chunks as ``size << FIT_SHIFT | base`` keys, sorted, so
  best fit — the least ``(size, base)`` whose size covers the request — is
  one bisection;
* ``lock_stack``: released lock locations, popped last-in first-out.

Keys, the functional lock words and allocator statistics are never
observed by a workload's trace, so the heap keeps none of them.  The two
allocators above stay the reference: the heap property tests drive all
three through the same request sequences.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Optional, Tuple

from repro.allocator.dlmalloc import ALIGNMENT, MIN_CHUNK
from repro.errors import OutOfMemoryError
from repro.isa.registers import WORD_BYTES
from repro.memory.address_space import AddressSpaceLayout, Segment

#: ``fit`` keys hold the size above this bit and the base below it.
FIT_SHIFT = 32
_BASE_MASK = (1 << FIT_SHIFT) - 1

#: ``state`` indices, shared with the C kernel.
H_WILDERNESS = 0
H_HEAP_LIMIT = 1
H_LOCK_BUMP = 2
H_LOCK_LIMIT = 3


class WorkloadHeap:
    """dlmalloc placement plus LIFO lock locations over flat int64 arrays."""

    def __init__(self, heap: Optional[Segment] = None,
                 locks: Optional[Segment] = None):
        layout = AddressSpaceLayout()
        heap = heap or layout.heap
        locks = locks or layout.lock_region
        if heap.limit > 1 << FIT_SHIFT:
            raise ValueError("heap segment beyond the fit keys' base field")
        self.state = array("q", [heap.base, heap.limit, locks.base,
                                 locks.limit])
        self.free_bases = array("q")
        self.free_sizes = array("q")
        self.fit = array("q")
        self.lock_stack = array("q")

    def columns(self):
        """Every column, for equality checks: the state then the arrays."""
        return (tuple(self.state), tuple(self.free_bases),
                tuple(self.free_sizes), tuple(self.fit),
                tuple(self.lock_stack))

    # -- locks -----------------------------------------------------------------
    def allocate_lock(self) -> int:
        """A recycled lock location, else the next fresh one."""
        if self.lock_stack:
            return self.lock_stack.pop()
        state = self.state
        lock = state[H_LOCK_BUMP]
        if lock + WORD_BYTES > state[H_LOCK_LIMIT]:
            raise OutOfMemoryError("lock location region exhausted")
        state[H_LOCK_BUMP] = lock + WORD_BYTES
        return lock

    # -- free chunks -----------------------------------------------------------
    def _add_free(self, base: int, size: int) -> None:
        index = bisect_left(self.free_bases, base)
        self.free_bases.insert(index, base)
        self.free_sizes.insert(index, size)
        key = size << FIT_SHIFT | base
        self.fit.insert(bisect_left(self.fit, key), key)

    def _remove_free(self, index: int) -> None:
        key = self.free_sizes[index] << FIT_SHIFT | self.free_bases[index]
        del self.fit[bisect_left(self.fit, key)]
        del self.free_bases[index]
        del self.free_sizes[index]

    # -- malloc / free ---------------------------------------------------------
    def malloc(self, size: int) -> Tuple[int, int, int]:
        """Place ``size`` bytes; returns ``(base, chunk size, lock)``."""
        request = max((size + ALIGNMENT - 1) & ~(ALIGNMENT - 1), MIN_CHUNK)
        fit = self.fit
        index = bisect_left(fit, request << FIT_SHIFT)
        if index < len(fit):
            key = fit[index]
            base, chunk = key & _BASE_MASK, key >> FIT_SHIFT
            self._remove_free(bisect_left(self.free_bases, base))
            if chunk - request >= MIN_CHUNK:
                self._add_free(base + request, chunk - request)
                chunk = request
        else:
            state = self.state
            base = state[H_WILDERNESS]
            if base + request > state[H_HEAP_LIMIT]:
                raise OutOfMemoryError(
                    f"heap exhausted: need {request} bytes at {base:#x}")
            state[H_WILDERNESS] = base + request
            chunk = request
        return base, chunk, self.allocate_lock()

    def free(self, base: int, chunk: int, lock: int) -> None:
        """Release a chunk ``malloc`` placed, and its lock location;
        the chunk merges with a free successor, then a free predecessor."""
        self.lock_stack.append(lock)
        bases, sizes = self.free_bases, self.free_sizes
        index = bisect_left(bases, base)
        if index < len(bases) and bases[index] == base + chunk:
            chunk += sizes[index]
            self._remove_free(index)
        if index and bases[index - 1] + sizes[index - 1] == base:
            base = bases[index - 1]
            chunk += sizes[index - 1]
            self._remove_free(index - 1)
        self._add_free(base, chunk)
