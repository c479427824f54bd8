"""Set-associative cache model with LRU replacement.

Used for every level of the Table 2 hierarchy, including the 4KB lock
location cache of §4.2 (which uses "the same tagging, block size, and state
bits" as the other caches).  The model is a behavioural hit/miss simulator:
it tracks tags per set with LRU ordering and reports whether each access hit,
which the hierarchy converts into a latency.

A cache's whole state is one flat ``array("q")`` in the native timing
core's encoding (:mod:`repro.native._timecore`): ``associativity``
consecutive slots per set, oldest first and compacted, where 0 is an empty
way and anything else is ``((block + 1) << 1) | dirty``.  The Python paths
below and the C kernel read and write the same array, so there is no second
copy to keep in step.  :func:`set_demand` mirrors the kernel's
``set_demand``/``set_install``; it searches a slice of the set rather than
looping per slot.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    block_bytes: int = 64
    hit_latency: int = 3

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.block_bytes <= 0:
            raise ConfigurationError(f"cache {self.name}: sizes must be positive")
        if self.size_bytes % (self.associativity * self.block_bytes) != 0:
            raise ConfigurationError(
                f"cache {self.name}: size {self.size_bytes} not divisible by "
                f"assoc*block ({self.associativity}*{self.block_bytes})")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.block_bytes)


def set_demand(ways, base: int, assoc: int, key: int, dirty: int) -> int:
    """Demand access to the set ``ways[base:base + assoc]``.

    ``key`` is the block's clean slot value, ``(block + 1) << 1``.  A hit
    moves the entry to the newest slot and ORs in ``dirty``; a miss inserts
    ``key | dirty``, evicting the oldest entry when the set is full.
    Returns -1 on a hit, else the evicted slot value (0 when none).  An
    install (prefetch, inclusive L3, warm-up) is the same transition with
    ``dirty`` 0 whose hit or miss is not counted.
    """
    end = base + assoc
    last = ways[end - 1]
    if last >> 1 == key >> 1:  # already the newest entry of a full set
        ways[end - 1] = last | dirty
        return -1
    s = ways[base:end].tolist()
    if key in s:
        i = s.index(key)
    elif key + 1 in s:
        i = s.index(key + 1)
    elif last:
        ways[base:end - 1] = ways[base + 1:end]
        ways[end - 1] = key | dirty
        return s[0]
    else:
        ways[base + s.index(0)] = key | dirty
        return 0
    n = assoc if last else s.index(0)
    ways[base + i:base + n - 1] = ways[base + i + 1:base + n]
    ways[base + n - 1] = s[i] | dirty
    return -1


class Cache:
    """One level of cache with LRU replacement and per-set tag arrays."""

    def __init__(self, config: CacheConfig):
        self.config = config
        # Geometry bound to plain attributes: the hot paths (and the
        # hierarchy's batch loops) must not pay a property call per access.
        self._num_sets = config.num_sets
        self._block_bytes = config.block_bytes
        self._assoc = config.associativity
        #: Every set's ways, in the encoding the module docstring describes.
        self.ways = array("q", [0]) * (self._num_sets * self._assoc)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    # -- geometry -----------------------------------------------------------
    def geometry(self):
        """``(ways, num_sets, associativity, block_bytes)`` for batch loops."""
        return self.ways, self._num_sets, self._assoc, self._block_bytes

    # -- warm-up --------------------------------------------------------------
    def fill(self, addresses) -> None:
        """Install ``addresses`` in order without touching any counter.

        The Python working-set install's fill (warm-up, which is
        unobserved; the kernel's ``ws_install`` leaves the same ways).  Sets
        are independent, so each touched set is read once into a dict of its
        live entries (clean key to slot value, oldest first), updated there
        and written back when the fill is done.
        """
        ways = self.ways
        num_sets = self._num_sets
        block_bytes = self._block_bytes
        assoc = self._assoc
        sets = {}
        for address in addresses:
            block = address // block_bytes
            index = block % num_sets
            entries = sets.get(index)
            if entries is None:
                base = index * assoc
                entries = sets[index] = {
                    slot & -2: slot
                    for slot in ways[base:base + assoc] if slot
                } if ways[base] else {}
            key = (block + 1) << 1
            if key in entries:
                entries[key] = entries.pop(key)
            else:
                if len(entries) == assoc:
                    del entries[next(iter(entries))]
                entries[key] = key
        for index, entries in sets.items():
            ways[index * assoc:index * assoc + len(entries)] = array(
                "q", entries.values())

    # -- statistics ------------------------------------------------------------
    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0
