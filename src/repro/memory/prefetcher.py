"""Stream prefetchers.

Table 2 lists per-level stream prefetchers (2 streams of 4 blocks at L1I,
4 streams of 4 blocks at L1D, 8 streams of 16 blocks at L2).  The model is a
classic next-N-blocks stream prefetcher: on a demand miss it looks for an
existing stream tracking that region, and if the miss extends the stream it
installs the next ``depth`` blocks into the target cache.

The tracked streams are one ``array("q")`` in the native timing core's
encoding, ``[count, last_block0, dir0, last_block1, dir1, ...]``, oldest
stream first.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.memory.cache import Cache, set_demand


@dataclass(frozen=True)
class PrefetcherConfig:
    """Number of concurrently tracked streams and blocks fetched per trigger."""

    streams: int = 4
    depth: int = 4

    def __post_init__(self) -> None:
        if self.streams <= 0 or self.depth <= 0:
            raise ConfigurationError("prefetcher streams/depth must be positive")


def pf_on_miss(table, streams: int, depth: int, ways, num_sets: int,
               assoc: int, block: int, ctr, evicted: int, writebacks: int,
               issued: int) -> None:
    """A demand miss at ``block``: the kernel's ``pf_on_miss``.

    Finds the first stream within ``depth`` blocks; with none, allocates one
    (dropping the oldest stream when all are in use) and issues nothing.
    Otherwise retargets the stream and installs the next ``depth`` blocks in
    its direction into ``ways``, adding to ``ctr[evicted]``,
    ``ctr[writebacks]`` and ``ctr[issued]``.
    """
    n = table[0]
    for i in range(1, 2 * n, 2):
        if abs(block - table[i]) <= depth:
            break
    else:
        if n >= streams:
            table[1:2 * streams - 1] = table[3:2 * streams + 1]
            n = streams - 1
        table[1 + 2 * n] = block
        table[2 + 2 * n] = 1
        table[0] = n + 1
        return
    direction = 1 if block >= table[i] else -1
    table[i] = block
    table[i + 1] = direction
    for b in range(block + direction, block + (depth + 1) * direction,
                   direction):
        if b < 0:
            continue
        ctr[issued] += 1
        slot = set_demand(ways, (b % num_sets) * assoc, assoc, (b + 1) << 1, 0)
        if slot > 0:
            ctr[evicted] += 1
            ctr[writebacks] += slot & 1


class StreamPrefetcher:
    """Next-N-blocks stream prefetcher feeding one cache."""

    def __init__(self, config: PrefetcherConfig, cache: Cache):
        self.config = config
        self.cache = cache
        #: The streams, in the encoding the module docstring describes.
        self.table = array("q", [0]) * (1 + 2 * config.streams)
        self.prefetches_issued = 0

    def on_miss(self, address: int) -> None:
        """Notify the prefetcher of a demand miss at ``address``."""
        cache = self.cache
        ctr = [0, 0, 0]
        pf_on_miss(self.table, self.config.streams, self.config.depth,
                   cache.ways, cache._num_sets, cache._assoc,
                   address // cache._block_bytes, ctr, 0, 1, 2)
        cache.evictions += ctr[0]
        cache.writebacks += ctr[1]
        self.prefetches_issued += ctr[2]

    def reset_stats(self) -> None:
        self.prefetches_issued = 0
