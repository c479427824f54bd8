"""Tests for the DL-malloc-style heap allocator."""

import pytest

from repro.allocator.dlmalloc import ALIGNMENT, DlMallocAllocator
from repro.errors import AllocatorError, OutOfMemoryError
from repro.memory.address_space import Segment


@pytest.fixture
def allocator(memory):
    return DlMallocAllocator(memory)


class TestBasicAllocation:
    def test_malloc_returns_heap_address(self, allocator, memory):
        ptr = allocator.malloc(64)
        assert memory.layout.heap.contains(ptr)

    def test_malloc_returns_aligned_addresses(self, allocator):
        for size in (1, 7, 24, 100):
            assert allocator.malloc(size) % ALIGNMENT == 0

    def test_distinct_live_allocations_do_not_overlap(self, allocator):
        a = allocator.malloc(64)
        b = allocator.malloc(64)
        assert abs(a - b) >= 64

    def test_zero_or_negative_size_rejected(self, allocator):
        with pytest.raises(AllocatorError):
            allocator.malloc(0)
        with pytest.raises(AllocatorError):
            allocator.malloc(-8)



class TestFreeAndReuse:
    def test_free_returns_chunk_size(self, allocator):
        ptr = allocator.malloc(48)
        assert allocator.free(ptr) >= 48
        assert allocator.free(allocator.malloc(100)) >= 100

    def test_freed_memory_is_reused(self, allocator):
        """The property location-based checkers stumble over (§2.1)."""
        ptr = allocator.malloc(64)
        allocator.free(ptr)
        again = allocator.malloc(64)
        assert again == ptr
        assert allocator.stats.reuses == 1

    def test_double_free_rejected(self, allocator):
        ptr = allocator.malloc(64)
        allocator.free(ptr)
        with pytest.raises(AllocatorError):
            allocator.free(ptr)

    def test_free_of_non_chunk_rejected(self, allocator):
        with pytest.raises(AllocatorError):
            allocator.free(0x123456)

    def test_split_of_large_free_chunk(self, allocator):
        big = allocator.malloc(1024)
        allocator.free(big)
        small = allocator.malloc(64)
        assert small == big
        assert allocator.stats.splits == 1

    def test_coalescing_adjacent_free_chunks(self, allocator):
        a = allocator.malloc(64)
        b = allocator.malloc(64)
        allocator.malloc(64)          # guard so the wilderness is not adjacent
        allocator.free(a)
        allocator.free(b)
        assert allocator.stats.coalesces >= 1
        merged = allocator.malloc(128)
        assert merged == a

    def test_best_fit_prefers_smaller_chunk(self, allocator):
        small = allocator.malloc(64)
        large = allocator.malloc(512)
        allocator.malloc(16)          # guard
        allocator.free(small)
        allocator.free(large)
        assert allocator.malloc(48) == small


class TestStatsAndLimits:
    def test_live_bytes_tracking(self, allocator):
        a = allocator.malloc(64)
        allocator.malloc(64)
        assert allocator.stats.live_bytes >= 128
        allocator.free(a)
        assert allocator.stats.live_bytes >= 64
        assert allocator.stats.peak_live_bytes >= 128

    def test_heap_exhaustion_raises(self, memory):
        tiny_heap = Segment("heap", memory.layout.heap.base,
                            memory.layout.heap.base + 256)
        allocator = DlMallocAllocator(memory, heap=tiny_heap)
        with pytest.raises(OutOfMemoryError):
            for _ in range(10):
                allocator.malloc(64)
