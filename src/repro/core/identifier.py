"""Lock-and-key allocation identifiers (§4.1).

Each memory allocation receives a unique identifier made of two parts:

* a **key** — a 64-bit unsigned integer that is never reused, and
* a **lock** — the address of an 8-byte *lock location* in a dedicated region
  of memory.

The invariant is: *the identifier is valid iff the word at the lock location
equals the key*.  Allocation writes the key into the lock location;
deallocation overwrites it with ``INVALID``; because keys are unique, a lock
location reused by a later allocation can never spuriously match a stale
key.  A validity check is therefore a single load plus an equality compare
(Figure 4b).

Lock locations themselves are recycled through a LIFO free list (§4.2), which
is what gives the lock location cache its locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import OutOfMemoryError, ProgramError
from repro.isa.registers import WORD_BYTES
from repro.memory.address_space import AddressSpace, Segment

#: Value written to a lock location on deallocation.  Key generation starts
#: above zero so no valid key ever equals it.
INVALID_KEY = 0

#: Key reserved for the single *global identifier* shared by all pointers to
#: the global/data segment (§7).  Its lock location always holds this key, so
#: checks on global pointers always pass.
GLOBAL_KEY = 1

#: First key handed out for ordinary allocations.
FIRST_DYNAMIC_KEY = 2


@dataclass(frozen=True)
class Identifier:
    """A lock-and-key identifier: 64-bit key plus 64-bit lock address."""

    key: int
    lock: int

    def __post_init__(self) -> None:
        if self.key < 0 or self.lock < 0:
            raise ProgramError("identifier key/lock must be non-negative")

    @property
    def is_global(self) -> bool:
        return self.key == GLOBAL_KEY

    def __str__(self) -> str:
        return f"id(key={self.key}, lock={self.lock:#x})"


class KeyGenerator:
    """Monotonically increasing 64-bit key source (keys are never reused)."""

    def __init__(self, first_key: int = FIRST_DYNAMIC_KEY):
        if first_key <= INVALID_KEY:
            raise ProgramError("first key must be greater than the INVALID key")
        self._next = first_key

    def next_key(self) -> int:
        key = self._next
        self._next += 1
        return key

    @property
    def keys_issued(self) -> int:
        return self._next - FIRST_DYNAMIC_KEY


class LockLocationAllocator:
    """Allocates 8-byte lock locations from a dedicated memory region.

    Freed lock locations are recycled LIFO (§4.2: "lock locations are
    reallocated using a LIFO free list"), which concentrates the working set
    of lock locations and is the reason a tiny 4KB lock location cache is
    effective.
    """

    def __init__(self, memory: AddressSpace, region: Optional[Segment] = None):
        self.memory = memory
        self.region = region or memory.layout.lock_region
        self._bump = self.region.base
        self._free_list: List[int] = []
        self.allocated = 0
        self.recycled = 0

    def allocate(self) -> int:
        """Return the address of a fresh (or recycled) lock location."""
        if self._free_list:
            self.recycled += 1
            self.allocated += 1
            return self._free_list.pop()
        if self._bump + WORD_BYTES > self.region.limit:
            raise OutOfMemoryError("lock location region exhausted")
        address = self._bump
        self._bump += WORD_BYTES
        self.allocated += 1
        return address

    def release(self, lock_address: int) -> None:
        """Return a lock location to the LIFO free list."""
        if not self.region.contains(lock_address):
            raise ProgramError(f"lock address {lock_address:#x} outside lock region")
        self._free_list.append(lock_address)

    @property
    def live_lock_locations(self) -> int:
        """Lock locations currently in use (allocated and not yet released)."""
        total_distinct = (self._bump - self.region.base) // WORD_BYTES
        return total_distinct - len(self._free_list)


class IdentifierTable:
    """Issues identifiers and maintains the lock-location invariant in memory.

    This is the mechanism shared by the heap runtime (software, Figure 3a/3b)
    and the hardware stack-frame manager (Figure 3c/3d): allocate a key and a
    lock location, write the key to the lock location; on deallocation write
    ``INVALID_KEY`` and recycle the lock location.
    """

    def __init__(self, memory: AddressSpace):
        self.memory = memory
        self.keys = KeyGenerator()
        self.locks = LockLocationAllocator(memory)
        self._global: Optional[Identifier] = None

    def allocate_identifier(self) -> Identifier:
        """Create a new valid identifier (key written to its lock location)."""
        key = self.keys.next_key()
        lock = self.locks.allocate()
        self.memory.store_word(lock, key)
        return Identifier(key=key, lock=lock)

    def invalidate(self, ident: Identifier) -> None:
        """Mark ``ident`` invalid and recycle its lock location."""
        self.memory.store_word(ident.lock, INVALID_KEY)
        self.locks.release(ident.lock)

    def is_valid(self, ident: Identifier) -> bool:
        """Functional validity check: does the lock location hold the key?"""
        return self.memory.load_word(ident.lock) == ident.key

    def global_identifier(self) -> Identifier:
        """The single always-valid identifier for the global segment (§7)."""
        if self._global is None:
            lock = self.locks.allocate()
            self.memory.store_word(lock, GLOBAL_KEY)
            self._global = Identifier(key=GLOBAL_KEY, lock=lock)
        return self._global
