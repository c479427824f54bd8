"""The instrumented malloc/free runtime (Figure 3a/3b).

On ``malloc`` the runtime allocates heap memory, creates a fresh lock-and-key
identifier (unique key, lock location from the LIFO free list, key written to
the lock location) and conveys it to the hardware with ``setident``.  On
``free`` it retrieves the pointer's identifier with ``getident``, *checks it is
still valid* (catching double frees and frees of pointers that never came from
malloc, §4.1), writes ``INVALID`` to the lock location, and recycles the lock
location.

The runtime is software in the paper; here it manipulates the same simulated
memory and identifier table the hardware uses, and reports how many dynamic
instructions each call would execute so the timing model can charge for them
(they appear in the "Other" segment of Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.allocator.dlmalloc import DlMallocAllocator
from repro.core.identifier import IdentifierTable, Identifier
from repro.core.metadata import PointerMetadata
from repro.errors import DoubleFreeError, InvalidFreeError
from repro.memory.address_space import AddressSpace

#: Approximate dynamic instruction counts of the allocator fast paths, used by
#: the timing model to charge for runtime work.  The *extra* instructions of
#: the instrumented runtime (identifier allocation, setident/getident) are
#: reported separately.
BASELINE_MALLOC_INSTRUCTIONS = 60
BASELINE_FREE_INSTRUCTIONS = 45
INSTRUMENTATION_MALLOC_INSTRUCTIONS = 12
INSTRUMENTATION_FREE_INSTRUCTIONS = 10


@dataclass
class AllocationRecord:
    """Bookkeeping for one live heap allocation."""

    base: int
    size: int
    metadata: PointerMetadata

    @property
    def identifier(self) -> Identifier:
        return self.metadata.identifier


class InstrumentedRuntime:
    """DL-malloc instrumented with setident/getident identifier management."""

    def __init__(self, memory: AddressSpace,
                 identifiers: Optional[IdentifierTable] = None,
                 track_bounds: bool = False):
        self.memory = memory
        self.allocator = DlMallocAllocator(memory)
        self.identifiers = identifiers or IdentifierTable(memory)
        self.track_bounds = track_bounds
        self._live: Dict[int, AllocationRecord] = {}
        self.malloc_calls = 0
        self.free_calls = 0
        self.double_frees_detected = 0
        self.invalid_frees_detected = 0
        self.runtime_instructions = 0
        self.instrumentation_instructions = 0

    # -- allocation -------------------------------------------------------------
    def malloc(self, size: int) -> Tuple[int, PointerMetadata]:
        """Allocate ``size`` bytes; return the pointer and its metadata.

        The metadata is what ``setident`` hands to the hardware: it becomes
        the sidecar metadata of the destination register (Figure 3a).
        """
        base = self.allocator.malloc(size)
        identifier = self.identifiers.allocate_identifier()
        metadata = PointerMetadata.for_allocation(
            identifier, base, size, with_bounds=self.track_bounds)
        self._live[base] = AllocationRecord(base=base, size=size, metadata=metadata)
        self.malloc_calls += 1
        self.runtime_instructions += BASELINE_MALLOC_INSTRUCTIONS
        self.instrumentation_instructions += INSTRUMENTATION_MALLOC_INSTRUCTIONS
        return base, metadata

    # -- deallocation -----------------------------------------------------------
    def free(self, pointer: int, metadata: Optional[PointerMetadata]) -> int:
        """Free ``pointer``; raises on double free / invalid free.

        ``metadata`` is the identifier retrieved via ``getident`` from the
        pointer being freed (Figure 3b).  The runtime checks that it is still
        valid before invalidating it.
        """
        self.free_calls += 1
        self.runtime_instructions += BASELINE_FREE_INSTRUCTIONS
        self.instrumentation_instructions += INSTRUMENTATION_FREE_INSTRUCTIONS

        if metadata is None:
            self.invalid_frees_detected += 1
            raise InvalidFreeError(
                f"free of pointer {pointer:#x} with no allocation identifier",
                address=pointer)

        if not self.identifiers.is_valid(metadata.identifier):
            self.double_frees_detected += 1
            raise DoubleFreeError(
                f"free of pointer {pointer:#x} whose identifier is already invalid "
                f"({metadata.identifier})", address=pointer)

        record = self._live.get(pointer)
        if record is None or record.identifier != metadata.identifier:
            self.invalid_frees_detected += 1
            raise InvalidFreeError(
                f"free of pointer {pointer:#x} that is not an allocation base",
                address=pointer)

        # Invalidate the identifier first (the security-critical step), then
        # return the memory to the allocator for reuse.
        self.identifiers.invalidate(metadata.identifier)
        del self._live[pointer]
        size = self.allocator.free(pointer)
        return size

    # -- queries -----------------------------------------------------------------
    def live_allocations(self) -> int:
        return len(self._live)

    def record_for(self, pointer: int) -> Optional[AllocationRecord]:
        """The live allocation record whose base is ``pointer``, if any."""
        return self._live.get(pointer)

    def record_containing(self, address: int) -> Optional[AllocationRecord]:
        """The live allocation containing ``address``, if any (O(n) scan,
        used only by tests and the location-based baseline)."""
        for record in self._live.values():
            if record.base <= address < record.base + record.size:
                return record
        return None

    def total_live_bytes(self) -> int:
        return sum(record.size for record in self._live.values())
