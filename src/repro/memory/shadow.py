"""Disjoint shadow metadata space.

Conceptually every word of program memory is shadowed by identifier metadata
(§3.3).  The shadow space lives in a dedicated region of the virtual address
space and is reached by bit selection/concatenation from the data address
(:meth:`repro.memory.address_space.AddressSpaceLayout.shadow_address`).

Functionally the shadow space maps a word-aligned *data* address to a metadata
record (whatever object the Watchdog core attaches — an identifier for the
use-after-free configuration, identifier plus base/bound for the bounds
extension).  For timing and for the Figure 10 memory-overhead experiment it
also exposes the shadow byte addresses an implementation would touch, sized by
``metadata_words`` (2 words = 128 bits for UAF-only, 4 words = 256 bits with
bounds, §8).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.errors import ProgramError
from repro.isa.registers import WORD_BYTES
from repro.memory.address_space import AddressSpaceLayout


class ShadowSpace:
    """Per-word pointer metadata storage (the disjoint metadata of §3.3)."""

    def __init__(self, layout: Optional[AddressSpaceLayout] = None,
                 metadata_words: int = 2):
        if metadata_words not in (2, 4):
            raise ProgramError("metadata_words must be 2 (UAF) or 4 (UAF+bounds)")
        self.layout = layout or AddressSpaceLayout()
        self.metadata_words = metadata_words
        self._entries: Dict[int, object] = {}
        self.loads = 0
        self.stores = 0

    # -- address mapping ---------------------------------------------------
    def shadow_address(self, data_address: int) -> int:
        """Byte address of the first shadow word for a data address.

        Each data word owns ``metadata_words`` consecutive shadow words, so
        the shadow address scales the word index by the metadata size; the
        high shadow bit is set by the layout.  This is the address the
        injected shadow load/store µops present to the cache hierarchy.
        """
        word = data_address & ~(WORD_BYTES - 1)
        scaled = word * self.metadata_words
        return self.layout.shadow_address(scaled % (1 << 47))

    def shadow_footprint_bytes(self) -> int:
        """Bytes of shadow memory holding live (non-default) metadata."""
        return len(self._entries) * self.metadata_words * WORD_BYTES

    # -- functional access ---------------------------------------------------
    @staticmethod
    def _key(data_address: int) -> int:
        return data_address & ~(WORD_BYTES - 1)

    def load(self, data_address: int):
        """Read the metadata shadowing the word at ``data_address``.

        Missing entries return ``None``, which the Watchdog core interprets as
        "not a pointer" (invalid metadata) — exactly what an implementation
        reading zero-filled demand-allocated shadow pages would see.
        """
        self.loads += 1
        return self._entries.get(self._key(data_address))

    def store(self, data_address: int, metadata) -> None:
        """Write metadata for the word at ``data_address``.

        Storing ``None`` clears the entry (a non-pointer value overwrote the
        word, so its shadow metadata must be invalidated).
        """
        self.stores += 1
        key = self._key(data_address)
        if metadata is None:
            self._entries.pop(key, None)
        else:
            self._entries[key] = metadata

    def bulk_initialize(self, addresses: Iterable[int], metadata) -> None:
        """Initialize many words at once (global-segment initialization, §7)."""
        for address in addresses:
            self._entries[self._key(address)] = metadata

    def clear_range(self, base: int, size: int) -> None:
        """Clear metadata for every word in ``[base, base+size)``."""
        start = self._key(base)
        end = base + size
        addr = start
        while addr < end:
            self._entries.pop(addr, None)
            addr += WORD_BYTES

    # -- introspection -------------------------------------------------------
    def live_entries(self) -> int:
        return len(self._entries)

    def touched_shadow_words(self) -> Iterable[int]:
        """Shadow word addresses holding live metadata (for page accounting)."""
        for data_word in self._entries:
            base = self.shadow_address(data_word)
            for i in range(self.metadata_words):
                yield base + i * WORD_BYTES

    def clear(self) -> None:
        self._entries.clear()
        self.loads = 0
        self.stores = 0
