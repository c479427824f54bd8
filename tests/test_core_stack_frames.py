"""Tests for hardware stack-frame identifier management (Figure 3c/3d)."""

import pytest

from repro.core.identifier import INVALID_KEY
from repro.core.stack_frames import StackFrameManager
from repro.errors import SimulationError


@pytest.fixture
def frames(memory):
    return StackFrameManager(memory)


def depth(frames):
    """Frames above the initial one: lock locations pushed on the stack."""
    return (frames.stack_lock - frames.region.base) // 8


class TestCallReturn:
    def test_initial_frame_has_valid_identifier(self, frames, memory):
        ident = frames.current_identifier()
        assert memory.load_word(ident.lock) == ident.key

    def test_call_allocates_new_key_and_lock(self, frames):
        before = frames.current_identifier()
        after = frames.on_call()
        assert after.key == before.key + 1
        assert after.lock == before.lock + 8
        assert depth(frames) == 1

    def test_key_written_to_lock_on_call(self, frames, memory):
        ident = frames.on_call()
        assert memory.load_word(ident.lock) == ident.key

    def test_return_invalidates_frame_lock(self, frames, memory):
        ident = frames.on_call()
        frames.on_return()
        assert memory.load_word(ident.lock) == INVALID_KEY

    def test_return_restores_caller_identifier(self, frames):
        caller = frames.current_identifier()
        frames.on_call()
        restored = frames.on_return()
        assert restored == caller

    def test_nested_calls(self, frames):
        frames.on_call()
        frames.on_call()
        assert depth(frames) == 2
        frames.on_return()
        frames.on_return()
        assert depth(frames) == 0

    def test_return_without_call_rejected(self, frames):
        with pytest.raises(SimulationError):
            frames.on_return()

    def test_stale_frame_detected_even_after_new_call(self, frames, memory):
        """The Figure 1 (right) scenario: a pointer into a popped frame keeps
        the old (key, lock); a later call reuses the lock location with a new
        key, so the stale identifier still fails to validate."""
        stale = frames.on_call()
        frames.on_return()
        fresh = frames.on_call()
        assert fresh.lock == stale.lock
        assert memory.load_word(stale.lock) == fresh.key
        assert memory.load_word(stale.lock) != stale.key

    def test_keys_never_reused_across_frames(self, frames):
        keys = set()
        for _ in range(20):
            keys.add(frames.on_call().key)
            frames.on_return()
        assert len(keys) == 20


class TestFrameMetadata:
    def test_metadata_without_bounds_by_default(self, frames):
        metadata = frames.current_frame_metadata()
        assert not metadata.has_bounds

    def test_metadata_with_bounds_when_tracking(self, memory):
        frames = StackFrameManager(memory, track_bounds=True)
        metadata = frames.current_frame_metadata(frame_base=0x7000_0000, frame_size=64)
        assert metadata.base == 0x7000_0000
        assert metadata.bound == 0x7000_0040

    def test_overflow_protection(self, memory):
        from repro.memory.address_space import Segment
        region = Segment("stack-locks", memory.layout.lock_region.base,
                         memory.layout.lock_region.base + 24)
        frames = StackFrameManager(memory, lock_stack_region=region)
        frames.on_call()
        with pytest.raises(SimulationError):
            frames.on_call()
            frames.on_call()
