"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.allocator.dlmalloc import DlMallocAllocator
from repro.allocator.runtime import InstrumentedRuntime
from repro.core.identifier import IdentifierTable
from repro.core.metadata import PointerMetadata
from repro.memory.address_space import AddressSpace
from repro.memory.cache import Cache, CacheConfig
from repro.memory.pages import PageAccountant
from repro.memory.shadow import ShadowSpace
from tests.helpers import cache_access

sizes = st.integers(min_value=1, max_value=4096)
small_ints = st.integers(min_value=0, max_value=63)


class TestAllocatorProperties:
    @given(st.lists(sizes, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_live_allocations_never_overlap(self, requests):
        """No two live chunks ever share a byte, whatever the request mix."""
        allocator = DlMallocAllocator(AddressSpace())
        live = {}
        for index, size in enumerate(requests):
            address = allocator.malloc(size)
            live[address] = size
            if index % 3 == 2:                       # free every third allocation
                victim = sorted(live)[len(live) // 2]
                assert allocator.free(victim) >= live.pop(victim)
            spans = sorted((base, base + length) for base, length in live.items())
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end <= start

    @given(st.lists(sizes, min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_alignment_and_ownership(self, requests):
        allocator = DlMallocAllocator(AddressSpace())
        live = {}
        for size in requests:
            address = allocator.malloc(size)
            assert address % 16 == 0
            assert allocator.heap.contains(address)
            live[address] = size
        for address, size in live.items():
            assert allocator.free(address) >= size


class TestIdentifierProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_stale_identifiers_never_revalidate(self, frees):
        """However allocation/deallocation interleave, an invalidated
        identifier never validates again (keys are never reused, §4.1)."""
        memory = AddressSpace()
        table = IdentifierTable(memory)
        stale = []
        live = []
        for do_free in frees:
            if do_free and live:
                ident = live.pop()
                table.invalidate(ident)
                stale.append(ident)
            else:
                live.append(table.allocate_identifier())
            for ident in stale:
                assert not table.is_valid(ident)
            for ident in live:
                assert table.is_valid(ident)

    @given(st.lists(sizes, min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_runtime_keys_are_unique_across_reuse(self, requests):
        runtime = InstrumentedRuntime(AddressSpace())
        seen_keys = set()
        previous = None
        for size in requests:
            pointer, metadata = runtime.malloc(size)
            assert metadata.identifier.key not in seen_keys
            seen_keys.add(metadata.identifier.key)
            if previous is not None:
                runtime.free(*previous)
            previous = (pointer, metadata)


class TestShadowProperties:
    @given(st.integers(min_value=0, max_value=(1 << 40) - 8), st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_shadow_mapping_is_word_stable_and_disjoint(self, address, offset):
        shadow = ShadowSpace()
        base = shadow.layout.heap.base + (address & ~7)
        assert shadow.shadow_address(base) == shadow.shadow_address(base + offset)
        assert shadow.layout.is_shadow(shadow.shadow_address(base))

    @given(st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 1000)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_shadow_store_load_consistency(self, writes):
        shadow = ShadowSpace()
        expected = {}
        heap = shadow.layout.heap.base
        for word_index, value in writes:
            address = heap + word_index * 8
            shadow.store(address, value)
            expected[address] = value
        for address, value in expected.items():
            assert shadow.load(address) == value


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = Cache(CacheConfig("c", 4096, 4, 64))
        for address in addresses:
            cache_access(cache, address)
        assert cache.hits + cache.misses == len(addresses)
        assert cache.evictions <= cache.misses

    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_immediate_re_access_always_hits(self, addresses):
        cache = Cache(CacheConfig("c", 8192, 8, 64))
        for address in addresses:
            cache_access(cache, address)
            assert cache_access(cache, address)


class TestPageAccountingProperties:
    @given(st.lists(st.integers(0, 1 << 30), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_page_accounting_monotonic(self, addresses):
        pages = PageAccountant()
        previous_words = 0
        for address in addresses:
            pages.touch_data(address)
            assert pages.data_word_count >= previous_words
            previous_words = pages.data_word_count
        assert pages.data_page_count <= pages.data_word_count


class TestMetadataProperties:
    @given(st.integers(0, 1 << 40), st.integers(1, 1 << 16), st.integers(0, 1 << 17),
           st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_bounds_contains_iff_inside(self, base, size, offset, access):
        from repro.core.identifier import Identifier
        metadata = PointerMetadata(identifier=Identifier(key=3, lock=0x100),
                                   base=base, bound=base + size)
        address = base + offset
        inside = offset + access <= size
        assert metadata.contains(address, access) == inside
