"""Tests for the disjoint shadow metadata space."""

import pytest

from repro.errors import ProgramError
from repro.memory.shadow import ShadowSpace


@pytest.fixture
def shadow():
    return ShadowSpace()


class TestShadowAddressing:
    def test_shadow_address_is_in_shadow_region(self, shadow):
        addr = shadow.layout.heap.base + 0x40
        assert shadow.layout.is_shadow(shadow.shadow_address(addr))

    def test_adjacent_words_get_distinct_shadow_slots(self, shadow):
        base = shadow.layout.heap.base
        assert shadow.shadow_address(base) != shadow.shadow_address(base + 8)

    def test_same_word_same_shadow_address(self, shadow):
        base = shadow.layout.heap.base
        assert shadow.shadow_address(base) == shadow.shadow_address(base + 4)

    def test_metadata_words_scales_footprint(self):
        addr = ShadowSpace().layout.heap.base
        for words in (2, 4):
            shadow = ShadowSpace(metadata_words=words)
            stride = shadow.shadow_address(addr + 8) - shadow.shadow_address(addr)
            assert stride == words * 8

    def test_invalid_metadata_words_rejected(self):
        with pytest.raises(ProgramError):
            ShadowSpace(metadata_words=3)


class TestShadowStorage:
    def test_missing_entry_reads_none(self, shadow):
        assert shadow.load(shadow.layout.heap.base) is None

    def test_store_load_roundtrip(self, shadow):
        addr = shadow.layout.heap.base + 16
        shadow.store(addr, "metadata")
        assert shadow.load(addr) == "metadata"

    def test_store_none_clears(self, shadow):
        addr = shadow.layout.heap.base
        shadow.store(addr, "metadata")
        shadow.store(addr, None)
        assert shadow.load(addr) is None

    def test_word_granularity(self, shadow):
        addr = shadow.layout.heap.base
        shadow.store(addr, "meta")
        assert shadow.load(addr + 7) == "meta"
        assert shadow.load(addr + 8) is None

    def test_stats_counters(self, shadow):
        shadow.load(shadow.layout.heap.base)
        shadow.store(shadow.layout.heap.base, "m")
        assert shadow.loads == 1 and shadow.stores == 1
