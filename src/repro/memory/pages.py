"""Page-granularity accounting for the Figure 10 memory-overhead experiment.

The paper reports memory overhead two ways: total *words* of memory accessed
and total 4KB *pages* of memory accessed, the latter reflecting on-demand
allocation of shadow pages by the operating system (§9.3, Figure 10).  The
difference between the two captures fragmentation from page-granularity
allocation of the shadow space.  The accountant only counts; the ratios the
figure plots are :meth:`repro.sim.results.CellResult.word_overhead` and
:meth:`~repro.sim.results.CellResult.page_overhead`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Set

PAGE_SIZE = 4096


@dataclass
class PageAccountant:
    """Tracks words and 4KB pages touched in the data and shadow spaces."""

    data_words: Set[int] = field(default_factory=set)
    shadow_words: Set[int] = field(default_factory=set)

    def touch_data(self, address: int, size: int = 8) -> None:
        """Record a program access of ``size`` bytes at ``address``."""
        start = address & ~7
        end = address + max(size, 1)
        word = start
        while word < end:
            self.data_words.add(word)
            word += 8

    def touch_shadow(self, address: int, size: int = 16) -> None:
        """Record a shadow-space access (metadata read/write)."""
        start = address & ~7
        end = address + max(size, 1)
        word = start
        while word < end:
            self.shadow_words.add(word)
            word += 8

    # -- word accounting ------------------------------------------------------
    @property
    def data_word_count(self) -> int:
        return len(self.data_words)

    @property
    def shadow_word_count(self) -> int:
        return len(self.shadow_words)

    # -- page accounting ------------------------------------------------------
    @staticmethod
    def _pages(words: Iterable[int]) -> Set[int]:
        return {w // PAGE_SIZE for w in words}

    @property
    def data_page_count(self) -> int:
        return len(self._pages(self.data_words))

    @property
    def shadow_page_count(self) -> int:
        return len(self._pages(self.shadow_words))
