"""Check semantics: identifier validity and bounds.

The check µop "reads the metadata from a register (which contains both the
lock and key), loads the value currently at the lock location, and then
compares it to the key" (§4.1, Figure 4b).  A mismatch means the allocation
was freed — the access is a dangling-pointer dereference and the hardware
raises an exception.

The bounds extension adds two inequality comparisons against the pointer's
base and bound (§8); no additional memory access is required because base and
bound travel with the pointer metadata.

Memory accesses through registers that carry *no* metadata (non-pointer
values, e.g. an integer forged into an address) are treated according to the
paper's model: without metadata there is no identifier to validate, so the
conservative hardware response is to flag the access — this is what makes
Watchdog effective against manufactured pointers.  The global identifier (§7)
always passes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.metadata import PointerMetadata
from repro.errors import BoundsError, UseAfterFreeError
from repro.memory.address_space import AddressSpace


class CheckOutcome(enum.Enum):
    """Result of a check µop."""

    PASS = "pass"
    USE_AFTER_FREE = "use-after-free"
    OUT_OF_BOUNDS = "out-of-bounds"
    NO_METADATA = "no-metadata"


@dataclass
class CheckStats:
    """Counters for the checking machinery."""

    identifier_checks: int = 0
    bounds_checks: int = 0
    failures: int = 0
    use_after_free: int = 0
    out_of_bounds: int = 0
    no_metadata: int = 0


class CheckUnit:
    """Functional implementation of the check and bounds-check µops."""

    def __init__(self, memory: AddressSpace, check_missing_metadata: bool = False):
        self.memory = memory
        #: When True, a memory access through a register with no pointer
        #: metadata fails the check.  The evaluation leaves this off for the
        #: SPEC-style workloads (unannotated integer-computed addresses are
        #:  common and the paper reports zero false positives) and the
        #: security experiments rely on identifier invalidation, not missing
        #: metadata.
        self.check_missing_metadata = check_missing_metadata
        self.stats = CheckStats()

    # -- identifier (use-after-free) check ----------------------------------------
    def identifier_check(self, metadata: Optional[PointerMetadata],
                         address: int) -> CheckOutcome:
        """The check µop: compare the key against the lock location's value."""
        self.stats.identifier_checks += 1
        if metadata is None:
            self.stats.no_metadata += 1
            if self.check_missing_metadata:
                self.stats.failures += 1
                return CheckOutcome.NO_METADATA
            return CheckOutcome.PASS
        lock_value = self.memory.load_word(metadata.identifier.lock)
        if lock_value != metadata.identifier.key:
            self.stats.failures += 1
            self.stats.use_after_free += 1
            return CheckOutcome.USE_AFTER_FREE
        return CheckOutcome.PASS

    # -- bounds check ---------------------------------------------------------------
    def bounds_check(self, metadata: Optional[PointerMetadata], address: int,
                     access_size: int) -> CheckOutcome:
        """The bounds-check: ``base <= address`` and ``address+size <= bound``."""
        self.stats.bounds_checks += 1
        if metadata is None or not metadata.has_bounds:
            return CheckOutcome.PASS
        if not metadata.contains(address, access_size):
            self.stats.failures += 1
            self.stats.out_of_bounds += 1
            return CheckOutcome.OUT_OF_BOUNDS
        return CheckOutcome.PASS

    # -- combined, exception-raising entry point --------------------------------------
    def check_access(self, metadata: Optional[PointerMetadata], address: int,
                     access_size: int, with_bounds: bool,
                     raise_on_failure: bool = True, pc: Optional[int] = None) -> CheckOutcome:
        """Perform the identifier check and optionally the bounds check.

        Returns the first failing outcome (or PASS).  When
        ``raise_on_failure`` is set, failures raise the corresponding
        :class:`~repro.errors.MemorySafetyViolation`.
        """
        outcome = self.identifier_check(metadata, address)
        if outcome is CheckOutcome.PASS and with_bounds:
            outcome = self.bounds_check(metadata, address, access_size)

        if not raise_on_failure or outcome is CheckOutcome.PASS:
            return outcome

        if outcome is CheckOutcome.OUT_OF_BOUNDS:
            assert metadata is not None
            raise BoundsError(
                f"access at {address:#x} (+{access_size}) outside "
                f"[{metadata.base:#x}, {metadata.bound:#x})",
                address=address, pc=pc)
        message = ("dangling pointer dereference" if outcome is CheckOutcome.USE_AFTER_FREE
                   else "memory access through a register with no pointer metadata")
        raise UseAfterFreeError(f"{message} at address {address:#x}", address=address, pc=pc)
