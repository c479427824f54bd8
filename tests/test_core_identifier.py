"""Tests for lock-and-key identifiers (§4.1)."""

import pytest

from repro.core.identifier import (
    GLOBAL_KEY,
    INVALID_KEY,
    Identifier,
    IdentifierTable,
    KeyGenerator,
    LockLocationAllocator,
)
from repro.errors import OutOfMemoryError, ProgramError
from repro.memory.address_space import Segment


class TestKeyGenerator:
    def test_keys_are_unique_and_monotonic(self):
        generator = KeyGenerator()
        keys = [generator.next_key() for _ in range(100)]
        assert len(set(keys)) == 100
        assert keys == sorted(keys)

    def test_keys_never_equal_invalid_or_global(self):
        generator = KeyGenerator()
        for _ in range(10):
            key = generator.next_key()
            assert key not in (INVALID_KEY, GLOBAL_KEY)

    def test_invalid_first_key_rejected(self):
        with pytest.raises(ProgramError):
            KeyGenerator(first_key=INVALID_KEY)


class TestLockLocationAllocator:
    def test_allocates_from_lock_region(self, memory):
        allocator = LockLocationAllocator(memory)
        lock = allocator.allocate()
        assert memory.layout.lock_region.contains(lock)

    def test_locations_are_word_spaced(self, memory):
        allocator = LockLocationAllocator(memory)
        first = allocator.allocate()
        second = allocator.allocate()
        assert second - first == 8

    def test_lifo_recycling(self, memory):
        """§4.2: lock locations are reallocated using a LIFO free list."""
        allocator = LockLocationAllocator(memory)
        a = allocator.allocate()
        b = allocator.allocate()
        allocator.release(a)
        allocator.release(b)
        assert allocator.allocate() == b
        assert allocator.allocate() == a

    def test_release_outside_region_rejected(self, memory):
        allocator = LockLocationAllocator(memory)
        with pytest.raises(ProgramError):
            allocator.release(memory.layout.heap.base)

    def test_exhaustion(self, memory):
        region = Segment("locks", memory.layout.lock_region.base,
                         memory.layout.lock_region.base + 16)
        allocator = LockLocationAllocator(memory, region)
        allocator.allocate()
        allocator.allocate()
        with pytest.raises(OutOfMemoryError):
            allocator.allocate()

    def test_counts_allocations_and_recycles(self, memory):
        allocator = LockLocationAllocator(memory)
        a = allocator.allocate()
        allocator.allocate()
        allocator.release(a)
        assert allocator.allocate() == a
        assert (allocator.allocated, allocator.recycled) == (3, 1)


class TestIdentifierTable:
    def test_new_identifier_is_valid(self, memory):
        table = IdentifierTable(memory)
        ident = table.allocate_identifier()
        assert table.is_valid(ident)
        assert memory.load_word(ident.lock) == ident.key

    def test_invalidate_makes_identifier_stale(self, memory):
        table = IdentifierTable(memory)
        ident = table.allocate_identifier()
        table.invalidate(ident)
        assert not table.is_valid(ident)
        assert memory.load_word(ident.lock) == INVALID_KEY

    def test_reused_lock_location_never_revalidates_old_identifier(self, memory):
        """Keys are never reused, so a recycled lock location can never make a
        stale identifier look valid again (§4.1)."""
        table = IdentifierTable(memory)
        old = table.allocate_identifier()
        table.invalidate(old)
        new = table.allocate_identifier()
        assert new.lock == old.lock
        assert table.is_valid(new)
        assert not table.is_valid(old)

    def test_global_identifier_always_valid_and_singleton(self, memory):
        table = IdentifierTable(memory)
        first = table.global_identifier()
        second = table.global_identifier()
        assert first == second
        assert first.key == GLOBAL_KEY
        assert table.is_valid(first)


class TestIdentifierValue:
    def test_identifier_equality_and_str(self):
        a = Identifier(key=5, lock=0xB0)
        assert a == Identifier(key=5, lock=0xB0)
        assert "key=5" in str(a)

    def test_negative_fields_rejected(self):
        with pytest.raises(ProgramError):
            Identifier(key=-1, lock=0)
