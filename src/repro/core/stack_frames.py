"""Hardware stack-frame identifier management (Figure 3c/3d).

Heap identifiers are managed by the software runtime, but stack frames are
created and destroyed far too frequently for that, so the hardware manages
their identifiers itself (§4.1).  It maintains:

* a ``stack_key`` control register holding the next key to allocate, and
* a ``stack_lock`` control register pointing to the top of an in-memory stack
  of lock locations.

On a call the hardware injects µops that increment ``stack_key``, push a new
lock location, write the key into it, and associate the new identifier with
the stack pointer.  On a return the lock location is invalidated, the stack of
lock locations is popped, and the stack pointer's identifier reverts to the
caller's frame.  Any pointer into a popped frame (Figure 1, right) therefore
fails its check: its key no longer matches the (invalidated) lock location.
"""

from __future__ import annotations

from typing import Optional

from repro.core.identifier import INVALID_KEY, Identifier
from repro.core.metadata import PointerMetadata
from repro.errors import SimulationError
from repro.isa.registers import WORD_BYTES
from repro.memory.address_space import AddressSpace, Segment

#: Keys for stack frames are drawn from a separate, very large space so they
#: can never collide with heap keys (the hardware uses a separate stack_key
#: control register).
STACK_KEY_BASE = 1 << 40


class StackFrameManager:
    """Implements the call/return identifier sequences of Figure 3c/3d."""

    def __init__(self, memory: AddressSpace, lock_stack_region: Optional[Segment] = None,
                 track_bounds: bool = False):
        self.memory = memory
        region = lock_stack_region or self._default_region(memory)
        self.region = region
        self.track_bounds = track_bounds
        #: stack_key control register: the next key to be allocated.
        self.stack_key = STACK_KEY_BASE
        #: stack_lock control register: top of the in-memory lock stack.
        self.stack_lock = region.base
        # The initial (main) frame gets its own identifier so stack accesses
        # made before any call are still covered.
        self.memory.store_word(self.stack_lock, self.stack_key)
        self.calls = 0
        self.returns = 0

    @staticmethod
    def _default_region(memory: AddressSpace) -> Segment:
        """Carve the lock-location stack out of the top half of the lock region."""
        lock_region = memory.layout.lock_region
        midpoint = lock_region.base + lock_region.size // 2
        return Segment("stack-locks", midpoint, lock_region.limit)

    # -- current frame -----------------------------------------------------------
    def current_identifier(self) -> Identifier:
        """Identifier of the currently executing frame."""
        return Identifier(key=self.memory.load_word(self.stack_lock),
                          lock=self.stack_lock)

    def current_frame_metadata(self, frame_base: int = 0,
                               frame_size: int = 0) -> PointerMetadata:
        """Metadata to attach to the stack pointer for the current frame."""
        identifier = self.current_identifier()
        if self.track_bounds and frame_size > 0:
            return PointerMetadata(identifier=identifier, base=frame_base,
                                   bound=frame_base + frame_size)
        return PointerMetadata(identifier=identifier)

    # -- call / return -----------------------------------------------------------
    def on_call(self) -> Identifier:
        """Figure 3c: allocate a key, push a lock location, write the key."""
        self.calls += 1
        self.stack_key += 1
        self.stack_lock += WORD_BYTES
        if self.stack_lock >= self.region.limit:
            raise SimulationError("stack lock region overflow (call depth too deep)")
        self.memory.store_word(self.stack_lock, self.stack_key)
        return Identifier(key=self.stack_key, lock=self.stack_lock)

    def on_return(self) -> Identifier:
        """Figure 3d: invalidate the frame's lock, pop, restore caller's id."""
        self.returns += 1
        if self.stack_lock <= self.region.base:
            raise SimulationError("return without a matching call")
        self.memory.store_word(self.stack_lock, INVALID_KEY)
        self.stack_lock -= WORD_BYTES
        current_key = self.memory.load_word(self.stack_lock)
        return Identifier(key=current_key, lock=self.stack_lock)

    @property
    def depth(self) -> int:
        """Current call depth (number of frames above the initial one)."""
        return (self.stack_lock - self.region.base) // WORD_BYTES
