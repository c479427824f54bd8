"""Simple TLB model.

Each L1-level cache in Figure 4c has its own TLB, including the lock location
cache ("has its own (small) TLB", §4.2).  Shadow-space accesses go through the
usual address translation machinery (§3.3), so they consult a TLB too.  The
model is a fully-associative LRU translation cache; a miss charges a fixed
page-walk penalty.

The state is one ``array("q")`` of ``entries`` slots in the native timing
core's encoding: oldest first and compacted, 0 empty, else ``page + 1``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.memory.pages import PAGE_SIZE


@dataclass(frozen=True)
class TLBConfig:
    """TLB geometry and miss penalty."""

    name: str
    entries: int = 64
    miss_penalty: int = 20
    page_bytes: int = PAGE_SIZE

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.page_bytes <= 0:
            raise ConfigurationError(f"tlb {self.name}: sizes must be positive")


def tlb_access(slots, key: int) -> bool:
    """Look ``key`` (``page + 1``) up in ``slots``; returns True on a hit.

    A hit moves the entry to the newest slot; a miss inserts it there,
    dropping the oldest entry when every slot is taken.  Mirrors the
    kernel's ``tlb_access``.
    """
    last = slots[-1]
    if last == key:  # already the newest entry of a full TLB
        return True
    if key in slots:
        n = len(slots) if last else slots.index(0)
        del slots[slots.index(key)]
        slots.insert(n - 1, key)
        return True
    if last:
        del slots[0]
        slots.append(key)
    else:
        slots[slots.index(0)] = key
    return False


class TLB:
    """Fully-associative LRU TLB."""

    def __init__(self, config: TLBConfig):
        self.config = config
        #: The translations, in the encoding the module docstring describes.
        self.slots = array("q", [0]) * config.entries
        self.hits = 0
        self.misses = 0

    def page_of(self, address: int) -> int:
        return address // self.config.page_bytes

    def access(self, address: int) -> int:
        """Translate ``address``; return the added latency (0 on a hit)."""
        if tlb_access(self.slots, address // self.config.page_bytes + 1):
            self.hits += 1
            return 0
        self.misses += 1
        return self.config.miss_penalty

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = 0

    def flush(self) -> None:
        self.slots[:] = array("q", [0]) * len(self.slots)
