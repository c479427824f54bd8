"""The Table 2 memory hierarchy.

Models the cache hierarchy the paper simulates (§9.1, Table 2):

* 32KB 8-way L1 data cache (3 cycles) with a 4-stream prefetcher,
* 256KB 8-way private L2 (10 cycles) with an 8-stream prefetcher,
* 16MB 16-way shared L3 (25 cycles),
* DRAM behind a dual-channel DDR bus (16ns latency, ~50 core cycles at
  3.2GHz; we charge an end-to-end miss penalty),
* an optional 4KB 8-way *lock location cache* that is a peer of the L1 caches
  and is accessed by check µops and identifier allocation/deallocation
  (§4.2, Figure 4c), with its own small TLB,
* a small L1 data TLB; shadow accesses translate like normal accesses (§3.3).

The hierarchy returns a latency per access and accumulates hit/miss
statistics.  Distinct access *classes* let the Watchdog core route shadow
metadata accesses and lock-location accesses appropriately, including the
"idealized shadow accesses" ablation of §9.3 (metadata accesses occupy ports
but never miss and never displace data).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.memory.cache import Cache, CacheConfig, set_demand
from repro.memory.prefetcher import (
    PrefetcherConfig,
    StreamPrefetcher,
    pf_on_miss,
)
from repro.memory.tlb import TLB, TLBConfig, tlb_access


class PortKind(enum.Enum):
    """Which L1-level structure an access uses.

    ``DATA`` — the normal L1 data cache (program loads/stores and, when the
    lock location cache is disabled, check µops too).
    ``LOCK`` — the dedicated lock location cache.
    ``SHADOW`` — shadow metadata accesses; they use the L1 data cache but are
    tagged separately so the ideal-shadow ablation can special-case them.
    """

    DATA = "data"
    LOCK = "lock"
    SHADOW = "shadow"


#: Small-int port codes used by the compiled trace pipeline's packed access
#: specs (``spec = port | is_write << 2 | use_latency << 3``).
PORT_DATA, PORT_LOCK, PORT_SHADOW = 0, 1, 2
PORT_CODES = {PortKind.DATA: PORT_DATA, PortKind.LOCK: PORT_LOCK,
              PortKind.SHADOW: PORT_SHADOW}
SPEC_WRITE = 4
SPEC_USE_LATENCY = 8


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache geometry and latency parameters (defaults follow Table 2)."""

    l1d: CacheConfig = CacheConfig("L1D", size_bytes=32 * 1024, associativity=8,
                                   block_bytes=64, hit_latency=3)
    l2: CacheConfig = CacheConfig("L2", size_bytes=256 * 1024, associativity=8,
                                  block_bytes=64, hit_latency=10)
    l3: CacheConfig = CacheConfig("L3", size_bytes=16 * 1024 * 1024, associativity=16,
                                  block_bytes=64, hit_latency=25)
    lock_cache: CacheConfig = CacheConfig("LockLoc", size_bytes=4 * 1024,
                                          associativity=8, block_bytes=64,
                                          hit_latency=3)
    l1d_prefetcher: PrefetcherConfig = PrefetcherConfig(streams=4, depth=4)
    l2_prefetcher: PrefetcherConfig = PrefetcherConfig(streams=8, depth=16)
    l1_tlb: TLBConfig = TLBConfig("DTLB", entries=64, miss_penalty=20)
    lock_tlb: TLBConfig = TLBConfig("LockTLB", entries=16, miss_penalty=20)
    dram_latency: int = 200
    #: Whether the dedicated lock location cache exists (Figure 9 ablation).
    lock_cache_enabled: bool = True
    #: Idealize shadow accesses: occupy ports, never miss, never allocate
    #: (§9.3 cache-pressure isolation experiment).
    ideal_shadow: bool = False


#: Access-class names in counter-slot order.  :class:`HierarchyStats` keeps
#: one integer counter pair per class; the dict views callers consume are
#: materialized on read.
_STAT_KINDS = ("data", "lock", "lock-on-data", "shadow", "shadow-ideal")
_STAT_INDEX = {name: i for i, name in enumerate(_STAT_KINDS)}

#: Shared-level (L2 / L3 / lock-location-cache) counters attributed to the
#: core that issued the access.  On a single-core hierarchy these mirror the
#: shared caches' own counters; on a multi-core hierarchy each core's stats
#: carry only its own share of the contention, while the cache objects
#: accumulate the global totals.
_SHARED_KEYS = ("l2_hits", "l2_misses", "l3_hits", "l3_misses",
                "lock_hits", "lock_misses", "lock_evictions",
                "lock_writebacks")

#: Counter deltas of one batch, in the native kernel's layout: 0-3 L1D
#: hits, misses, evictions, writebacks; 4-7 L2; 8-11 L3; 12-15 lock cache;
#: 16-17 DTLB hits, misses; 18-19 lock TLB; 20-21 L1D/L2 prefetches issued;
#: 22-24 accesses per port (data, lock, shadow); 25-27 their latency sums.
N_COUNTERS = 28


class HierarchyStats:
    """Aggregated access counts by class.

    Each batch folds its per-class totals into two integer lists
    (:meth:`fold`); ``accesses``/``total_latency`` materialize dicts holding
    exactly the classes that were recorded.
    """

    __slots__ = ("_counts", "_latency", "shared")

    def __init__(self):
        self._counts = [0] * len(_STAT_KINDS)
        self._latency = [0] * len(_STAT_KINDS)
        #: Per-core attribution of shared-level traffic (see
        #: :data:`_SHARED_KEYS`).  The demand paths fold into it; warm-up
        #: traffic is folded only where both the Python and native paths
        #: count it (L2/L3), and callers reset stats after warming anyway.
        self.shared = dict.fromkeys(_SHARED_KEYS, 0)

    def fold(self, kind: str, count: int, latency: int) -> None:
        """Merge one batch's accumulated count/latency for ``kind``."""
        index = _STAT_INDEX[kind]
        self._counts[index] += count
        self._latency[index] += latency

    @property
    def accesses(self) -> Dict[str, int]:
        return {name: count
                for name, count in zip(_STAT_KINDS, self._counts) if count}

    @property
    def total_latency(self) -> Dict[str, int]:
        return {name: latency
                for name, latency, count in zip(_STAT_KINDS, self._latency,
                                                self._counts) if count}

    def average_latency(self, kind: str) -> float:
        index = _STAT_INDEX.get(kind)
        if index is None or not self._counts[index]:
            return 0.0
        return self._latency[index] / self._counts[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, HierarchyStats):
            return NotImplemented
        return (self._counts == other._counts
                and self._latency == other._latency
                and self.shared == other.shared)

    def __repr__(self) -> str:
        return (f"HierarchyStats(accesses={self.accesses}, "
                f"total_latency={self.total_latency}, "
                f"shared={{{', '.join(f'{k}: {v}' for k, v in self.shared.items() if v)}}})")


class SharedMemoryBackend:
    """The shared levels of a (possibly multi-core) memory hierarchy.

    Holds the L2, the inclusive L3, the lock location cache and the L2
    prefetcher.  A single-core :class:`MemoryHierarchy` builds a private
    backend implicitly; a multi-core simulation builds one backend and hands
    it to every core's hierarchy, so the cores contend for the same shared
    state while keeping their L1s, L1 prefetchers and TLBs private.
    """

    def __init__(self, config: Optional[HierarchyConfig] = None):
        self.config = config or HierarchyConfig()
        self.l2 = Cache(self.config.l2)
        self.l3 = Cache(self.config.l3)
        self.lock_cache = Cache(self.config.lock_cache)
        self.l2_prefetcher = StreamPrefetcher(self.config.l2_prefetcher,
                                              self.l2)

    def reset_stats(self) -> None:
        for cache in (self.l2, self.l3, self.lock_cache):
            cache.reset_stats()
        self.l2_prefetcher.reset_stats()


class MemoryHierarchy:
    """L1D + lock location cache + L2 + L3 + DRAM with prefetchers and TLBs."""

    #: Per-instance override for the native timing core on the batch paths:
    #: ``None`` defers to the kernel's availability (and its
    #: ``REPRO_TIMECORE`` kill switch), ``False`` forces the Python loops,
    #: ``True`` is merely an explicit "use it when available".
    native_override: Optional[bool] = None

    def __init__(self, config: Optional[HierarchyConfig] = None,
                 shared: Optional[SharedMemoryBackend] = None,
                 core_id: int = 0):
        if shared is None:
            shared = SharedMemoryBackend(config)
        elif config is not None and config != shared.config:
            raise ConfigurationError(
                "hierarchy config does not match the shared backend's")
        self.config = shared.config
        self.shared = shared
        self.core_id = core_id
        self.l1d = Cache(self.config.l1d)
        # The shared levels are plain attribute references into the backend:
        # every consumer (batch replay in Python or in the kernel, stats
        # readers) sees the same objects, and so the same arrays, whether the
        # backend is private to this core or contended by several.
        self.l2 = shared.l2
        self.l3 = shared.l3
        self.lock_cache = shared.lock_cache
        self.l1d_prefetcher = StreamPrefetcher(self.config.l1d_prefetcher, self.l1d)
        self.l2_prefetcher = shared.l2_prefetcher
        self.dtlb = TLB(self.config.l1_tlb)
        self.lock_tlb = TLB(self.config.lock_tlb)
        self.stats = HierarchyStats()

    # -- public access points --------------------------------------------------
    def access(self, address: int, is_write: bool = False,
               port: PortKind = PortKind.DATA) -> int:
        """Perform one demand access and return its total latency in cycles.

        A one-element :meth:`access_batch`: the same state transitions,
        counters and statistics, on the kernel or the Python loop alike.
        """
        spec = PORT_CODES[port] | SPEC_USE_LATENCY
        if is_write:
            spec |= SPEC_WRITE
        lats = [0]
        self._batch((address,), (spec,), (0,), lats, True)
        return lats[0]

    # -- batched access -------------------------------------------------------
    #
    # The timing model separates hierarchy replay from µop scheduling: the
    # access *order* of a compiled µop stream is its program order, so all
    # cache/TLB/prefetcher state transitions — and the load latencies the
    # scheduler needs — can be produced in one tight pass.  A batch runs in
    # the native kernel's ``hier_batch`` when it is loaded, else in
    # :meth:`_replay`, its Python mirror; both work on the structures' own
    # arrays and return the same counter deltas, which :meth:`_apply` folds
    # back.

    def access_batch(self, addrs, specs, positions, lats) -> None:
        """Replay a demand-access sequence, filling per-µop load latencies.

        ``specs`` carries ``port | is_write << 2 | use_latency << 3`` per
        access; accesses with the use-latency bit store their latency into
        ``lats[positions[i]]`` (loads); the rest only update hierarchy state
        and statistics (stores retire at fixed latency off the critical
        path).  State transitions and statistics are bit-identical to the
        equivalent :meth:`access` sequence, which is this method one access
        at a time.  The stream compiler hands in
        ``array("q")`` columns, which the kernel consumes as they are; any
        other sequence type is converted on entry.
        """
        self._batch(addrs, specs, positions, lats, True)

    def warm_batch(self, addrs, specs) -> None:
        """Replay accesses for warm-up: the same state transitions as
        :meth:`access_batch`, but the L1, lock-cache, TLB and L3-install
        counters and the per-class stats are left alone.

        Callers reset every statistic right after warming, so only cache,
        TLB and prefetcher *state* is observable.  ``specs`` is either a
        per-access sequence or one int applied to every address.
        """
        self._batch(addrs, specs, None, None, False)

    def _batch(self, addrs, specs, positions, lats, collect: bool) -> None:
        if not len(addrs):
            return
        if self.native_override is not False:
            from repro.native import _timecore
            lib = _timecore.load()
            if lib is not None:
                self._batch_native(lib, addrs, specs, positions, lats,
                                   collect)
                return
        if isinstance(specs, int):
            specs, stride = (specs,), 0
        else:
            stride = 1
        self._apply(self._replay(addrs, specs, stride, positions, lats,
                                 collect), collect)

    def _batch_native(self, lib, addrs, specs, positions, lats,
                      collect: bool) -> None:
        """Replay one batch through an already-loaded native timing core.

        Separate from :meth:`_batch` so the kernel's load-time self-test can
        drive a candidate library against hierarchies whose
        ``native_override`` forces the Python path.
        """
        from repro.native import _timecore
        self._apply(_timecore.run_batch(lib, self, addrs, specs, positions,
                                        lats, collect), collect)

    def _replay(self, addrs, specs, stride: int, positions, lats,
                collect: bool) -> List[int]:
        """The Python mirror of the kernel's ``hier_batch``.

        Same arguments (``specs[k * stride]`` is access ``k``'s spec), same
        statements in the same order over the same arrays, and the same
        counter deltas in the kernel's layout (:data:`N_COUNTERS`).
        """
        config = self.config
        lock_en = config.lock_cache_enabled
        ideal = config.ideal_shadow
        c = 1 if collect else 0
        l1w, l1_sets, l1_assoc, l1_bb = self.l1d.geometry()
        l2w, l2_sets, l2_assoc, l2_bb = self.l2.geometry()
        l3w, l3_sets, l3_assoc, l3_bb = self.l3.geometry()
        lkw, lk_sets, lk_assoc, lk_bb = self.lock_cache.geometry()
        l1_lat = config.l1d.hit_latency
        l2_lat = config.l2.hit_latency
        l3_lat = config.l3.hit_latency
        lk_lat = config.lock_cache.hit_latency
        dram = config.dram_latency
        dtlb = self.dtlb.slots
        dtlb_pb = config.l1_tlb.page_bytes
        dtlb_pen = config.l1_tlb.miss_penalty
        ltlb = self.lock_tlb.slots
        ltlb_pb = config.lock_tlb.page_bytes
        ltlb_pen = config.lock_tlb.miss_penalty
        pf1 = self.l1d_prefetcher.table
        pf1_streams = config.l1d_prefetcher.streams
        pf1_depth = config.l1d_prefetcher.depth
        pf2 = self.l2_prefetcher.table
        pf2_streams = config.l2_prefetcher.streams
        pf2_depth = config.l2_prefetcher.depth
        ctr = [0] * N_COUNTERS
        dtlb_last = ltlb_last = -1

        def beyond_l1(a, write):
            block = a // l2_bb
            slot = set_demand(l2w, (block % l2_sets) * l2_assoc, l2_assoc,
                              (block + 1) << 1, write)
            if slot < 0:
                ctr[4] += 1
                return l2_lat
            ctr[5] += 1
            if slot:
                ctr[6] += 1
                ctr[7] += slot & 1
            pf_on_miss(pf2, pf2_streams, pf2_depth, l2w, l2_sets, l2_assoc,
                       block, ctr, 6, 7, 21)
            block = a // l3_bb
            slot = set_demand(l3w, (block % l3_sets) * l3_assoc, l3_assoc,
                              (block + 1) << 1, write)
            if slot < 0:
                ctr[8] += 1
                return l2_lat + l3_lat
            ctr[9] += 1
            if slot:
                ctr[10] += 1
                ctr[11] += slot & 1
            return l2_lat + l3_lat + dram

        for k, a in enumerate(addrs):
            spec = specs[k * stride]
            port = spec & 3
            write = (spec >> 2) & 1
            if port == 1 and lock_en:
                # -- dedicated lock location cache (no L1 prefetcher) -------
                page = a // ltlb_pb
                if page == ltlb_last:
                    ctr[18] += c
                    lat = lk_lat
                elif tlb_access(ltlb, page + 1):
                    ctr[18] += c
                    ltlb_last = page
                    lat = lk_lat
                else:
                    ctr[19] += c
                    ltlb_last = page
                    lat = ltlb_pen + lk_lat
                block = a // lk_bb
                slot = set_demand(lkw, (block % lk_sets) * lk_assoc, lk_assoc,
                                  (block + 1) << 1, write)
                if slot < 0:
                    ctr[12] += c
                else:
                    if collect:
                        ctr[13] += 1
                        if slot:
                            ctr[14] += 1
                            ctr[15] += slot & 1
                    lat += beyond_l1(a, write)
            elif port == 2 and ideal:
                # Idealized shadow: a port-occupying L1 hit, no allocation.
                if collect:
                    lat = l1_lat
                    ctr[24] += 1
                    ctr[27] += lat
                    if spec & 8:
                        lats[positions[k]] = lat
                continue
            else:
                # -- the L1 data cache (data, shadow, lock-on-data) ----------
                page = a // dtlb_pb
                if page == dtlb_last:
                    ctr[16] += c
                    lat = l1_lat
                elif tlb_access(dtlb, page + 1):
                    ctr[16] += c
                    dtlb_last = page
                    lat = l1_lat
                else:
                    ctr[17] += c
                    dtlb_last = page
                    lat = dtlb_pen + l1_lat
                block = a // l1_bb
                slot = set_demand(l1w, (block % l1_sets) * l1_assoc, l1_assoc,
                                  (block + 1) << 1, write)
                if slot < 0:
                    ctr[0] += c
                else:
                    if collect:
                        ctr[1] += 1
                        if slot:
                            ctr[2] += 1
                            ctr[3] += slot & 1
                    pf_on_miss(pf1, pf1_streams, pf1_depth, l1w, l1_sets,
                               l1_assoc, block, ctr, 2, 3, 20)
                    lat += beyond_l1(a, write)
            # inclusive L3 install (demand accesses of every class)
            block = a // l3_bb
            slot = set_demand(l3w, (block % l3_sets) * l3_assoc, l3_assoc,
                              (block + 1) << 1, 0)
            if collect:
                if slot > 0:
                    ctr[10] += 1
                    ctr[11] += slot & 1
                ctr[22 + port] += 1
                ctr[25 + port] += lat
                if spec & 8:
                    lats[positions[k]] = lat
        return ctr

    def _apply(self, ctr, collect: bool) -> None:
        """Fold one batch's counter deltas into the structures' counters,
        this core's share of the shared levels and (when collecting) the
        per-class stats."""
        for target, base in ((self.l1d, 0), (self.l2, 4), (self.l3, 8),
                             (self.lock_cache, 12)):
            target.hits += ctr[base]
            target.misses += ctr[base + 1]
            target.evictions += ctr[base + 2]
            target.writebacks += ctr[base + 3]
        self.dtlb.hits += ctr[16]
        self.dtlb.misses += ctr[17]
        self.lock_tlb.hits += ctr[18]
        self.lock_tlb.misses += ctr[19]
        self.l1d_prefetcher.prefetches_issued += ctr[20]
        self.l2_prefetcher.prefetches_issued += ctr[21]
        # Warm-up counts L2/L3 demand traffic too (both paths route it
        # through the same beyond-L1 code); the lock counters are
        # collect-gated and therefore zero when warming.
        shared = self.stats.shared
        shared["l2_hits"] += ctr[4]
        shared["l2_misses"] += ctr[5]
        shared["l3_hits"] += ctr[8]
        shared["l3_misses"] += ctr[9]
        shared["lock_hits"] += ctr[12]
        shared["lock_misses"] += ctr[13]
        shared["lock_evictions"] += ctr[14]
        shared["lock_writebacks"] += ctr[15]
        if collect:
            config = self.config
            names = ("data",
                     "lock" if config.lock_cache_enabled else "lock-on-data",
                     "shadow-ideal" if config.ideal_shadow else "shadow")
            for code in (0, 1, 2):
                if ctr[22 + code]:
                    self.stats.fold(names[code], ctr[22 + code],
                                    ctr[25 + code])

    # -- statistics ----------------------------------------------------------
    def lock_cache_mpki(self, instructions: int) -> float:
        """This core's lock location cache misses per 1000 instructions
        (§9.3); on a shared backend other cores' misses do not count."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.stats.shared["lock_misses"] / instructions

    def reset_stats(self) -> None:
        for cache in (self.l1d, self.l2, self.l3, self.lock_cache):
            cache.reset_stats()
        self.dtlb.reset_stats()
        self.lock_tlb.reset_stats()
        self.l1d_prefetcher.reset_stats()
        self.l2_prefetcher.reset_stats()
        self.stats = HierarchyStats()
