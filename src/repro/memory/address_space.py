"""Virtual address space layout and the functional word-granular memory.

The paper targets 64-bit x86 with 48-bit virtual addresses and carves the
shadow space out of the unused high-order bits so that a data address can be
converted to its shadow address "via simple bit selection and concatenation"
(§3.3).  We reproduce that layout:

* a *global/data* segment (never deallocated; all pointers into it carry the
  single global identifier, §7),
* a downward-growing *stack* segment,
* an upward-growing *heap* segment managed by the runtime allocator,
* a *lock location* region holding the 8-byte lock words (§4.1),
* a *shadow* region positioned by a high-order bit, holding per-word pointer
  metadata (§3.3).

The functional memory stores 64-bit words in a dictionary keyed by the
word-aligned address; untouched memory reads as zero.  Sub-word accesses are
implemented read-modify-write on the containing word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ProgramError, UncheckedAccessError
from repro.isa.registers import WORD_BYTES, WORD_MASK

VA_BITS = 48
VA_LIMIT = 1 << VA_BITS

#: High-order bit used to position the shadow region (bit selection /
#: concatenation trick of §3.3).
SHADOW_BIT = 1 << (VA_BITS - 1)


@dataclass(frozen=True)
class Segment:
    """A contiguous region of the virtual address space."""

    name: str
    base: int
    limit: int

    def __post_init__(self) -> None:
        if not 0 <= self.base < self.limit <= VA_LIMIT:
            raise ProgramError(f"segment {self.name} has invalid range "
                               f"[{self.base:#x}, {self.limit:#x})")

    @property
    def size(self) -> int:
        return self.limit - self.base

    def contains(self, address: int) -> bool:
        return self.base <= address < self.limit


@dataclass(frozen=True)
class AddressSpaceLayout:
    """Default placement of the program segments.

    The exact constants are not material; what matters is that the segments
    are disjoint, word aligned, and that the shadow region is reachable by
    setting a single high-order address bit.
    """

    globals_seg: Segment = Segment("globals", 0x0000_1000_0000, 0x0000_2000_0000)
    heap: Segment = Segment("heap", 0x0000_2000_0000, 0x0000_6000_0000)
    lock_region: Segment = Segment("locks", 0x0000_6000_0000, 0x0000_7000_0000)
    stack: Segment = Segment("stack", 0x0000_7000_0000, 0x0000_8000_0000)

    def segments(self) -> Tuple[Segment, ...]:
        return (self.globals_seg, self.heap, self.lock_region, self.stack)

    def segment_of(self, address: int) -> Optional[Segment]:
        """Return the segment containing ``address``, or None."""
        for seg in self.segments():
            if seg.contains(address):
                return seg
        return None

    def is_shadow(self, address: int) -> bool:
        """True if ``address`` lies in the shadow region."""
        return bool(address & SHADOW_BIT)

    def shadow_address(self, address: int) -> int:
        """Map a data address to the address of its shadow metadata word.

        Every data word shadows to a metadata slot; we keep the mapping
        word-for-word (the metadata *size* is accounted separately by
        :class:`repro.memory.shadow.ShadowSpace` and the page accountant) so
        the translation is exactly the bit-concatenation of §3.3.
        """
        if self.is_shadow(address):
            raise ProgramError("address is already a shadow address")
        return SHADOW_BIT | address


class AddressSpace:
    """Functional word-granular memory plus segment bookkeeping."""

    def __init__(self, strict: bool = False):
        self.layout = AddressSpaceLayout()
        #: word-aligned address -> 64-bit value
        self._words: Dict[int, int] = {}
        #: When strict, accesses outside any mapped segment raise
        #: :class:`UncheckedAccessError` (used to show what an unprotected
        #: baseline lets an exploit do versus a wild access).
        self.strict = strict
        self.reads = 0
        self.writes = 0

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def word_address(address: int) -> int:
        return address & ~(WORD_BYTES - 1)

    def _check_mapped(self, address: int) -> None:
        if not self.strict:
            return
        if self.layout.is_shadow(address):
            return
        if self.layout.segment_of(address) is None:
            raise UncheckedAccessError(
                f"access to unmapped address {address:#x}", address=address)

    # -- word access ------------------------------------------------------
    def load_word(self, address: int) -> int:
        """Load the 64-bit word containing ``address`` (aligned)."""
        self._check_mapped(address)
        self.reads += 1
        return self._words.get(self.word_address(address), 0)

    def store_word(self, address: int, value: int) -> None:
        """Store a 64-bit value at the word containing ``address``."""
        self._check_mapped(address)
        self.writes += 1
        self._words[self.word_address(address)] = value & WORD_MASK

    # -- sized access -------------------------------------------------------
    def load(self, address: int, size: int = WORD_BYTES) -> int:
        """Load ``size`` bytes (1/2/4/8) starting at ``address``."""
        if size == WORD_BYTES and address % WORD_BYTES == 0:
            return self.load_word(address)
        word = self.load_word(address)
        offset = (address % WORD_BYTES) * 8
        mask = (1 << (size * 8)) - 1
        return (word >> offset) & mask

    def store(self, address: int, value: int, size: int = WORD_BYTES) -> None:
        """Store ``size`` bytes of ``value`` starting at ``address``."""
        if size == WORD_BYTES and address % WORD_BYTES == 0:
            self.store_word(address, value)
            return
        word = self.load_word(address)
        offset = (address % WORD_BYTES) * 8
        mask = ((1 << (size * 8)) - 1) << offset
        word = (word & ~mask) | ((value << offset) & mask)
        self.store_word(address, word)

    # -- introspection ------------------------------------------------------
    def words_in(self, segment: Segment) -> int:
        """Number of written words that fall inside ``segment``."""
        return sum(1 for a in self._words if segment.contains(a))

    def clear(self) -> None:
        self._words.clear()
        self.reads = 0
        self.writes = 0
