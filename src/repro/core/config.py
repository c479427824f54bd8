"""Watchdog configuration.

The evaluation explores several configurations of the same hardware:

* pointer identification: conservative vs ISA-assisted (§5, Figures 5 and 7),
* the dedicated lock location cache: present or absent (§4.2, Figure 9),
* the bounds extension: disabled, fused into the existing check µop, or
  implemented as a second injected µop (§8, Figure 11),
* idealized shadow accesses (cache-pressure isolation, §9.3),
* rename-time metadata copy elimination (§6.2; disabling it is an ablation
  this reproduction adds to quantify the design choice).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class PointerIdentificationMode(enum.Enum):
    """How loads/stores are classified as pointer operations (§5)."""

    CONSERVATIVE = "conservative"
    ISA_ASSISTED = "isa-assisted"


class BoundsCheckMode(enum.Enum):
    """Whether and how bounds checking is performed (§8)."""

    NONE = "none"
    FUSED_SINGLE_UOP = "fused-1uop"
    SEPARATE_UOP = "separate-2uop"


@dataclass(frozen=True)
class WatchdogConfig:
    """Complete configuration of the Watchdog hardware."""

    enabled: bool = True
    pointer_identification: PointerIdentificationMode = PointerIdentificationMode.ISA_ASSISTED
    bounds_mode: BoundsCheckMode = BoundsCheckMode.NONE
    lock_cache_enabled: bool = True
    ideal_shadow: bool = False
    copy_elimination: bool = True

    # -- derived properties ------------------------------------------------------
    @property
    def bounds_enabled(self) -> bool:
        return self.bounds_mode is not BoundsCheckMode.NONE

    @property
    def metadata_words(self) -> int:
        """Shadow metadata footprint per pointer in 64-bit words (§8)."""
        return 4 if self.bounds_enabled else 2

    @property
    def conservative(self) -> bool:
        return self.pointer_identification is PointerIdentificationMode.CONSERVATIVE

    # -- named configurations used throughout the evaluation ----------------------
    @classmethod
    def disabled(cls) -> "WatchdogConfig":
        """An unprotected baseline (no checks, no metadata, no extra µops)."""
        return cls(enabled=False)

    @classmethod
    def conservative_uaf(cls) -> "WatchdogConfig":
        """Use-after-free checking with conservative pointer identification."""
        return cls(pointer_identification=PointerIdentificationMode.CONSERVATIVE)

    @classmethod
    def isa_assisted_uaf(cls) -> "WatchdogConfig":
        """Use-after-free checking with ISA-assisted pointer identification
        (the paper's headline 15% configuration)."""
        return cls(pointer_identification=PointerIdentificationMode.ISA_ASSISTED)

    @classmethod
    def no_lock_cache(cls) -> "WatchdogConfig":
        """ISA-assisted UAF checking without the lock location cache (Fig 9)."""
        return cls(lock_cache_enabled=False)

    @classmethod
    def full_safety_fused(cls) -> "WatchdogConfig":
        """UAF + bounds with the bound check fused into the check µop (Fig 11)."""
        return cls(bounds_mode=BoundsCheckMode.FUSED_SINGLE_UOP)

    @classmethod
    def full_safety_two_uops(cls) -> "WatchdogConfig":
        """UAF + bounds with a separate bounds-check µop (Fig 11, 24% average)."""
        return cls(bounds_mode=BoundsCheckMode.SEPARATE_UOP)

    @classmethod
    def idealized_shadow(cls) -> "WatchdogConfig":
        """ISA-assisted UAF with idealized shadow accesses (§9.3 ablation)."""
        return cls(ideal_shadow=True)

    def with_(self, **kwargs) -> "WatchdogConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
