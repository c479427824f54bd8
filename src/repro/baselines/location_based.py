"""Location-based use-after-free checking (§2.1).

Location-based approaches (Valgrind Memcheck, Jones & Kelly, MemTracker, LBA,
SafeProc) track the allocated/deallocated status of *addresses*: an auxiliary
shadow structure is updated on malloc/free and consulted on every access.
The approach detects accesses to memory that is currently unallocated, but
once a freed region is reallocated to a new object, a stale pointer into it
dereferences "allocated" memory and the error is missed — the fundamental
limitation Table 1 records in the "Comprehensive" column.

This module implements the checker over the same event-trace abstraction the
Table 1 harness replays through every approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set


@dataclass
class LocationCheckStats:
    """Counters describing one replay."""

    accesses: int = 0
    violations: int = 0
    allocations: int = 0
    frees: int = 0


class LocationBasedChecker:
    """Shadow allocation-status checker (word granularity)."""

    #: Metadata organisation as Table 1 reports it.
    metadata = "disjoint"
    #: Location-based checking keys off addresses only, so arbitrary casts of
    #: the *pointer value* cannot corrupt its metadata.
    survives_arbitrary_casts = True

    def __init__(self) -> None:
        self._allocated_words: Set[int] = set()
        self.stats = LocationCheckStats()

    # -- event handling -------------------------------------------------------------
    @staticmethod
    def _words(base: int, size: int):
        word = base & ~7
        end = base + max(size, 1)
        while word < end:
            yield word
            word += 8

    def on_alloc(self, base: int, size: int) -> None:
        self.stats.allocations += 1
        for word in self._words(base, size):
            self._allocated_words.add(word)

    def on_free(self, base: int, size: int) -> None:
        self.stats.frees += 1
        for word in self._words(base, size):
            self._allocated_words.discard(word)

    def check_access(self, address: int, size: int = 8) -> bool:
        """True if the access passes (the location is currently allocated)."""
        self.stats.accesses += 1
        ok = all(word in self._allocated_words for word in self._words(address, size))
        if not ok:
            self.stats.violations += 1
        return ok

    # -- introspection ----------------------------------------------------------------
    def is_allocated(self, address: int) -> bool:
        return (address & ~7) in self._allocated_words
