"""Tests for the address space layout and functional memory."""

import pytest

from repro.errors import ProgramError, UncheckedAccessError
from repro.memory.address_space import (
    AddressSpace,
    AddressSpaceLayout,
    SHADOW_BIT,
    Segment,
)


class TestSegment:
    def test_contains(self):
        seg = Segment("x", 0x1000, 0x2000)
        assert seg.contains(0x1000)
        assert seg.contains(0x1FFF)
        assert not seg.contains(0x2000)

    def test_size(self):
        assert Segment("x", 0x1000, 0x3000).size == 0x2000

    def test_invalid_range_rejected(self):
        with pytest.raises(ProgramError):
            Segment("bad", 0x2000, 0x1000)


class TestLayout:
    def test_segments_are_disjoint(self):
        layout = AddressSpaceLayout()
        segments = layout.segments()
        for i, a in enumerate(segments):
            for b in segments[i + 1:]:
                assert a.limit <= b.base or b.limit <= a.base

    def test_segment_of(self):
        layout = AddressSpaceLayout()
        assert layout.segment_of(layout.heap.base) is layout.heap
        assert layout.segment_of(layout.stack.base + 8) is layout.stack
        assert layout.segment_of(0) is None

    def test_shadow_address_sets_high_bit(self):
        layout = AddressSpaceLayout()
        shadow = layout.shadow_address(layout.heap.base)
        assert shadow & SHADOW_BIT
        assert layout.is_shadow(shadow)
        assert not layout.is_shadow(layout.heap.base)

    def test_shadow_of_shadow_rejected(self):
        layout = AddressSpaceLayout()
        with pytest.raises(ProgramError):
            layout.shadow_address(layout.shadow_address(layout.heap.base))


class TestAddressSpace:
    def test_unwritten_memory_reads_zero(self, memory):
        assert memory.load_word(memory.layout.heap.base) == 0

    def test_word_roundtrip(self, memory):
        addr = memory.layout.heap.base + 0x100
        memory.store_word(addr, 0xDEADBEEF)
        assert memory.load_word(addr) == 0xDEADBEEF

    def test_word_access_aligns_address(self, memory):
        addr = memory.layout.heap.base + 0x100
        memory.store_word(addr, 0x1234)
        assert memory.load_word(addr + 4) == 0x1234

    def test_subword_store_preserves_other_bytes(self, memory):
        addr = memory.layout.heap.base
        memory.store_word(addr, 0xFFFF_FFFF_FFFF_FFFF)
        memory.store(addr, 0, size=4)
        assert memory.load_word(addr) == 0xFFFF_FFFF_0000_0000

    def test_subword_load(self, memory):
        addr = memory.layout.heap.base
        memory.store_word(addr, 0x1122334455667788)
        assert memory.load(addr, size=4) == 0x55667788
        assert memory.load(addr, size=1) == 0x88

    def test_values_masked_to_64_bits(self, memory):
        addr = memory.layout.heap.base
        memory.store_word(addr, 1 << 65)
        assert memory.load_word(addr) == 0

    def test_strict_mode_rejects_unmapped(self):
        memory = AddressSpace(strict=True)
        with pytest.raises(UncheckedAccessError):
            memory.load_word(0x10)

    def test_strict_mode_allows_mapped_and_shadow(self):
        memory = AddressSpace(strict=True)
        memory.store_word(memory.layout.heap.base, 1)
        memory.store_word(memory.layout.shadow_address(memory.layout.heap.base), 1)

    def test_access_counters(self, memory):
        memory.store_word(memory.layout.heap.base, 1)
        memory.load_word(memory.layout.heap.base)
        assert memory.writes == 1 and memory.reads == 1
