"""Per-pointer metadata.

Every pointer — in a register (sidecar, §3.4) or in memory (shadow space,
§3.3) — carries an allocation :class:`~repro.core.identifier.Identifier`.
With the bounds extension (§8) the metadata widens to also carry a 64-bit
``base`` and 64-bit ``bound``, for a total of 256 bits per pointer.

``None`` is used throughout the library to mean "no metadata / not a pointer"
(the invalid mapping "−" of Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.identifier import Identifier
from repro.errors import ProgramError


@dataclass(frozen=True)
class PointerMetadata:
    """Identifier plus optional base/bound attached to a pointer value."""

    identifier: Identifier
    base: Optional[int] = None
    bound: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.base is None) != (self.bound is None):
            raise ProgramError("base and bound must be set together")
        if self.base is not None and self.bound is not None and self.bound < self.base:
            raise ProgramError(f"bound {self.bound:#x} precedes base {self.base:#x}")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def for_allocation(cls, identifier: Identifier, base: int, size: int,
                       with_bounds: bool = True) -> "PointerMetadata":
        """Metadata for a fresh allocation of ``size`` bytes at ``base``."""
        if with_bounds:
            return cls(identifier=identifier, base=base, bound=base + size)
        return cls(identifier=identifier)

    # -- properties -----------------------------------------------------------
    @property
    def has_bounds(self) -> bool:
        return self.base is not None

    # -- checks ----------------------------------------------------------------
    def contains(self, address: int, access_size: int = 1) -> bool:
        """Byte-granularity bounds test for an access at ``address`` (§8)."""
        if not self.has_bounds:
            return True
        assert self.base is not None and self.bound is not None
        return self.base <= address and address + access_size <= self.bound

    def __str__(self) -> str:
        if self.has_bounds:
            return (f"meta({self.identifier}, base={self.base:#x}, "
                    f"bound={self.bound:#x})")
        return f"meta({self.identifier})"
