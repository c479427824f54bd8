"""Tests for the instrumented malloc/free runtime (Figure 3a/3b)."""

import pytest

from repro.allocator.runtime import InstrumentedRuntime
from repro.core.identifier import INVALID_KEY
from repro.errors import DoubleFreeError, InvalidFreeError


@pytest.fixture
def runtime(memory):
    return InstrumentedRuntime(memory)


class TestMalloc:
    def test_malloc_returns_pointer_and_metadata(self, runtime, memory):
        pointer, metadata = runtime.malloc(64)
        assert memory.layout.heap.contains(pointer)
        assert metadata.identifier.key > 0

    def test_key_written_to_lock_location(self, runtime, memory):
        _, metadata = runtime.malloc(64)
        assert memory.load_word(metadata.identifier.lock) == metadata.identifier.key

    def test_every_allocation_gets_unique_key(self, runtime):
        keys = {runtime.malloc(32)[1].identifier.key for _ in range(50)}
        assert len(keys) == 50

    def test_bounds_attached_when_tracking_bounds(self, memory):
        runtime = InstrumentedRuntime(memory, track_bounds=True)
        pointer, metadata = runtime.malloc(48)
        assert metadata.base == pointer
        assert metadata.bound == pointer + 48

    def test_no_bounds_by_default(self, runtime):
        _, metadata = runtime.malloc(48)
        assert not metadata.has_bounds

    def test_live_allocation_bookkeeping(self, runtime):
        pointer, _ = runtime.malloc(64)
        assert runtime.record_for(pointer).size == 64
        assert runtime.record_for(pointer + 8) is None


class TestFree:
    def test_free_invalidates_identifier(self, runtime, memory):
        pointer, metadata = runtime.malloc(64)
        runtime.free(pointer, metadata)
        assert memory.load_word(metadata.identifier.lock) == INVALID_KEY
        assert runtime.record_for(pointer) is None

    def test_lock_location_recycled_lifo(self, runtime):
        pointer, metadata = runtime.malloc(64)
        runtime.free(pointer, metadata)
        _, metadata2 = runtime.malloc(64)
        assert metadata2.identifier.lock == metadata.identifier.lock
        assert metadata2.identifier.key != metadata.identifier.key

    def test_double_free_detected(self, runtime):
        pointer, metadata = runtime.malloc(64)
        runtime.free(pointer, metadata)
        # reallocate the same chunk so the memory is "valid" again
        runtime.malloc(64)
        with pytest.raises(DoubleFreeError):
            runtime.free(pointer, metadata)

    def test_free_without_metadata_detected(self, runtime):
        pointer, _ = runtime.malloc(64)
        with pytest.raises(InvalidFreeError):
            runtime.free(pointer, None)

    def test_free_of_interior_pointer_detected(self, runtime):
        pointer, metadata = runtime.malloc(64)
        with pytest.raises(InvalidFreeError):
            runtime.free(pointer + 8, metadata)

    def test_reallocation_key_differs_even_for_same_address(self, runtime):
        """The comprehensive-detection property (§2.2): the reused chunk gets a
        fresh identifier, so the stale identifier can never validate."""
        pointer, metadata = runtime.malloc(64)
        runtime.free(pointer, metadata)
        again, metadata2 = runtime.malloc(64)
        assert again == pointer
        assert metadata2.identifier.key != metadata.identifier.key
        assert not runtime.identifiers.is_valid(metadata.identifier)
        assert runtime.identifiers.is_valid(metadata2.identifier)

    def test_instruction_cost_accounting(self, runtime):
        pointer, metadata = runtime.malloc(64)
        runtime.free(pointer, metadata)
        assert runtime.runtime_instructions > 0
        assert runtime.instrumentation_instructions > 0
        assert runtime.malloc_calls == 1 and runtime.free_calls == 1
