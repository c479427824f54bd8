"""Tests for the set-associative cache model, TLB, prefetcher and pages."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.cache import Cache, CacheConfig
from repro.memory.pages import PAGE_SIZE, PageAccountant
from repro.memory.prefetcher import (
    PrefetcherConfig,
    StreamPrefetcher,
    pf_on_miss,
)
from repro.memory.tlb import TLB, TLBConfig, tlb_access
from repro.sim.results import CellResult
from repro.sim.simulator import SimulationOutcome
from tests.helpers import cache_access, resident


def small_cache(size=1024, assoc=2, block=64, latency=3):
    return Cache(CacheConfig("test", size_bytes=size, associativity=assoc,
                             block_bytes=block, hit_latency=latency))


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig("c", 32 * 1024, 8, 64)
        assert config.num_sets == 64

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("c", 1000, 3, 64)
        with pytest.raises(ConfigurationError):
            CacheConfig("c", 0, 1, 64)


class TestCacheBehaviour:
    def test_first_access_misses_then_hits(self):
        cache = small_cache()
        assert not cache_access(cache, 0x1000)
        assert cache_access(cache, 0x1000)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_same_block_different_offset_hits(self):
        cache = small_cache()
        cache_access(cache, 0x1000)
        assert cache_access(cache, 0x1030)

    def test_lru_eviction(self):
        cache = small_cache(size=128, assoc=1, block=64)  # 2 sets, direct mapped
        cache_access(cache, 0x0)       # set 0
        cache_access(cache, 0x80)      # set 0 again (evicts 0x0)
        assert not cache_access(cache, 0x0)
        assert cache.evictions == 2

    def test_lru_order_updated_on_hit(self):
        cache = small_cache(size=256, assoc=2, block=64)  # 2 sets, 2-way
        cache_access(cache, 0x000)     # set 0 way A
        cache_access(cache, 0x100)     # set 0 way B
        cache_access(cache, 0x000)     # touch A so B is LRU
        cache_access(cache, 0x200)     # set 0: evicts B
        assert cache_access(cache, 0x000)
        assert not cache_access(cache, 0x100)

    def test_writeback_counted_for_dirty_eviction(self):
        cache = small_cache(size=128, assoc=1, block=64)
        cache_access(cache, 0x0, is_write=True)
        cache_access(cache, 0x80)
        assert cache.writebacks == 1
        cache_access(cache, 0x0)       # evicts the clean 0x80
        assert cache.writebacks == 1

    def test_fill_installs_without_counting(self):
        cache = small_cache()
        cache.fill([0x1000, 0x2000])
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        assert resident(cache, 0x1000) and resident(cache, 0x2000)
        assert cache_access(cache, 0x1000)


def translate(tlb, address):
    """One lookup of ``address``'s page; True on a hit."""
    return tlb_access(tlb.slots, address // tlb.config.page_bytes + 1)


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(TLBConfig("t", entries=2, miss_penalty=20))
        assert not translate(tlb, 0x1000)
        assert translate(tlb, 0x1FFF)

    def test_capacity_eviction(self):
        tlb = TLB(TLBConfig("t", entries=2, miss_penalty=20))
        translate(tlb, 0x0000)
        translate(tlb, PAGE_SIZE)
        translate(tlb, 2 * PAGE_SIZE)   # evicts page 0
        assert not translate(tlb, 0x0000)

    def test_hit_refreshes_lru_order(self):
        tlb = TLB(TLBConfig("t", entries=2, miss_penalty=20))
        translate(tlb, 0x0000)
        translate(tlb, PAGE_SIZE)
        translate(tlb, 0x0000)          # page 0 becomes the newest
        translate(tlb, 2 * PAGE_SIZE)   # evicts page 1, the oldest
        assert translate(tlb, 0x0000)
        assert not translate(tlb, PAGE_SIZE)


def on_miss(prefetcher, cache, address):
    """Notify ``prefetcher`` of a demand miss at ``address`` in ``cache``,
    the cache it feeds, as the hierarchy's batch loop does."""
    ways, num_sets, assoc, block_bytes = cache.geometry()
    ctr = [0, 0, 0]
    pf_on_miss(prefetcher.table, prefetcher.config.streams,
               prefetcher.config.depth, ways, num_sets, assoc,
               address // block_bytes, ctr, 0, 1, 2)
    prefetcher.prefetches_issued += ctr[2]


class TestPrefetcher:
    def test_prefetches_next_blocks_into_cache(self):
        cache = small_cache(size=4096, assoc=4)
        prefetcher = StreamPrefetcher(PrefetcherConfig(streams=2, depth=4))
        on_miss(prefetcher, cache, 0x0)       # allocates a stream
        on_miss(prefetcher, cache, 0x40)      # extends it, prefetches ahead
        assert prefetcher.prefetches_issued == 4
        assert resident(cache, 0x80)

    def test_first_stream_within_depth_is_retargeted(self):
        # pf_on_miss: streams at blocks 64 and 68 (beyond the depth of 3)
        # are both within reach of a miss at 66; the first, older one takes
        # it and runs forward, and the later one is left alone.
        cache = small_cache(size=4096, assoc=4)
        prefetcher = StreamPrefetcher(PrefetcherConfig(streams=2, depth=3))
        for block in (64, 68, 66):
            on_miss(prefetcher, cache, block * 64)
        assert list(prefetcher.table) == [2, 66, 1, 68, 1]
        assert prefetcher.prefetches_issued == 3
        assert all(resident(cache, block * 64) for block in (67, 68, 69))
        assert not resident(cache, 65 * 64)

    def test_stream_count_bounded(self):
        cache = small_cache()
        prefetcher = StreamPrefetcher(PrefetcherConfig(streams=1, depth=2))
        on_miss(prefetcher, cache, 0x0)
        on_miss(prefetcher, cache, 0x100000)
        assert prefetcher.table[0] == 1  # streams tracked


def figure10_cell(pages):
    """The cell Figure 10 reads its two ratios from."""
    return CellResult.from_outcome(SimulationOutcome("b", "c", pages=pages))


class TestPageAccountant:
    def test_word_counting(self):
        pages = PageAccountant()
        pages.touch_data(0x1000, size=16)
        assert pages.data_word_count == 2

    def test_word_overhead_ratio(self):
        pages = PageAccountant()
        pages.touch_data(0x1000, size=8)
        pages.touch_data(0x1008, size=8)
        pages.touch_shadow(1 << 47, size=16)
        assert figure10_cell(pages).word_overhead() == pytest.approx(1.0)

    def test_page_overhead_reflects_fragmentation(self):
        pages = PageAccountant()
        pages.touch_data(0, size=8)
        # one shadow word on each of two different pages
        pages.touch_shadow(PAGE_SIZE * 10, size=8)
        pages.touch_shadow(PAGE_SIZE * 20, size=8)
        assert figure10_cell(pages).page_overhead() == pytest.approx(2.0)

    def test_empty_accountant_has_zero_overhead(self):
        cell = figure10_cell(PageAccountant())
        assert cell.word_overhead() == 0.0
        assert cell.page_overhead() == 0.0
