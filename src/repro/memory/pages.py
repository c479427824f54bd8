"""Page-granularity accounting for the Figure 10 memory-overhead experiment.

The paper reports memory overhead two ways: total *words* of memory accessed
and total 4KB *pages* of memory accessed, the latter reflecting on-demand
allocation of shadow pages by the operating system (§9.3, Figure 10).  The
difference between the two captures fragmentation from page-granularity
allocation of the shadow space.
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

    def word_overhead(self) -> float:
        """Shadow words as a fraction of data words (Figure 10, left bars)."""
        if not self.data_words:
            return 0.0
        return len(self.shadow_words) / len(self.data_words)

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

    def page_overhead(self) -> float:
        """Shadow pages as a fraction of data pages (Figure 10, right bars)."""
        data_pages = self.data_page_count
        if data_pages == 0:
            return 0.0
        return self.shadow_page_count / data_pages

    def clear(self) -> None:
        self.data_words.clear()
        self.shadow_words.clear()
