"""Decoupled register metadata and rename-time copy elimination (§6).

Each architectural register maps to *two* physical registers: one for the
data value and one for the 128-bit (or 256-bit, with bounds) metadata.  The
map table therefore holds a pair of mappings per logical register
(Figure 6).  Three propagation cases are handled at rename:

1. single-source operations (move, add-immediate, …) copy the metadata by
   *remapping* — the destination's metadata mapping is set to the source's
   metadata physical register, no µop executes and no value is copied
   (physical register sharing à la RENO [30]),
2. operations that can never produce a pointer set the destination's metadata
   mapping to the invalid mapping "−",
3. two-register-source operations where either input may be the pointer get a
   ``META_SELECT`` µop (injected earlier); the renamer allocates a fresh
   metadata physical register for its result.

Because several logical registers can share one metadata physical register,
the metadata physical registers are reference counted [33] and freed only
when the last mapping is overwritten.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import WatchdogConfig
from repro.errors import SimulationError
from repro.isa.instructions import (
    Instruction,
    NON_POINTER_PRODUCERS,
    Opcode,
    SELECT_PROPAGATORS,
    SINGLE_SOURCE_PROPAGATORS,
)
from repro.isa.microops import MicroOp, UopKind
from repro.isa.registers import ArchReg

#: Sentinel physical register id for the invalid metadata mapping "−".
INVALID_MAPPING = -1


@dataclass
class RenameStats:
    """Counters for the metadata renaming machinery."""

    metadata_copies_eliminated: int = 0
    metadata_invalidations: int = 0
    metadata_registers_allocated: int = 0
    metadata_registers_freed: int = 0
    select_allocations: int = 0


@dataclass
class RenameResult:
    """Physical metadata mapping changes performed for one µop."""

    uop: MicroOp
    meta_sources: Tuple[int, ...] = ()
    meta_dest: int = INVALID_MAPPING
    eliminated_copy: bool = False


class ReferenceCountedPool:
    """Pool of metadata physical registers with reference counting [33]."""

    def __init__(self, size: int):
        self.size = size
        self._free: List[int] = list(range(size - 1, -1, -1))
        self._refcounts: Dict[int, int] = {}

    def allocate(self) -> int:
        if not self._free:
            raise SimulationError("metadata physical register file exhausted")
        reg = self._free.pop()
        self._refcounts[reg] = 1
        return reg

    def add_reference(self, reg: int) -> None:
        if reg == INVALID_MAPPING:
            return
        self._refcounts[reg] = self._refcounts.get(reg, 0) + 1

    def release(self, reg: int) -> bool:
        """Drop one reference; return True if the register was freed."""
        if reg == INVALID_MAPPING:
            return False
        count = self._refcounts.get(reg, 0) - 1
        if count <= 0:
            self._refcounts.pop(reg, None)
            self._free.append(reg)
            return True
        self._refcounts[reg] = count
        return False

    def refcount(self, reg: int) -> int:
        return self._refcounts.get(reg, 0)

    @property
    def live_registers(self) -> int:
        return self.size - len(self._free)


class MetadataRenamer:
    """Map-table extension holding the per-register metadata mappings."""

    def __init__(self, config: Optional[WatchdogConfig] = None,
                 num_metadata_physical_registers: int = 160):
        self.config = config or WatchdogConfig()
        self.pool = ReferenceCountedPool(num_metadata_physical_registers)
        #: logical register -> metadata physical register (or INVALID_MAPPING).
        self._maptable: Dict[ArchReg, int] = {}
        self.stats = RenameStats()

    # -- map-table helpers -----------------------------------------------------
    def mapping_of(self, reg: ArchReg) -> int:
        return self._maptable.get(reg, INVALID_MAPPING)

    def _set_mapping(self, reg: ArchReg, new_mapping: int) -> None:
        old = self._maptable.get(reg, INVALID_MAPPING)
        if old != INVALID_MAPPING:
            if self.pool.release(old):
                self.stats.metadata_registers_freed += 1
        if new_mapping == INVALID_MAPPING:
            self._maptable[reg] = INVALID_MAPPING
        else:
            self._maptable[reg] = new_mapping

    def assign_fresh(self, reg: ArchReg) -> int:
        """Allocate a fresh metadata physical register and map ``reg`` to it.

        Used when metadata *values* arrive from outside the register dataflow:
        shadow loads, ``setident``, and the stack-frame manager writing the
        stack pointer's identifier.
        """
        fresh = self.pool.allocate()
        self.stats.metadata_registers_allocated += 1
        self._set_mapping(reg, fresh)
        return fresh

    def invalidate(self, reg: ArchReg) -> None:
        """Map ``reg`` to the invalid mapping (non-pointer value)."""
        self.stats.metadata_invalidations += 1
        self._set_mapping(reg, INVALID_MAPPING)

    # -- per-µop renaming -----------------------------------------------------------
    def rename(self, uop: MicroOp) -> RenameResult:
        """Apply the metadata-mapping rules of §6.2 to one µop."""
        macro = uop.macro
        meta_sources = tuple(self.mapping_of(r) for r in uop.meta_srcs)

        # Watchdog µops that *produce* register metadata.
        if uop.kind in (UopKind.SHADOW_LOAD, UopKind.SETIDENT, UopKind.LOCK_PUSH,
                        UopKind.LOCK_POP, UopKind.SETBOUNDS):
            dest = uop.meta_dest
            if dest is None:
                return RenameResult(uop=uop, meta_sources=meta_sources)
            fresh = self.assign_fresh(dest)
            return RenameResult(uop=uop, meta_sources=meta_sources, meta_dest=fresh)

        if uop.kind is UopKind.META_SELECT:
            dest = uop.meta_dest
            if dest is None:
                return RenameResult(uop=uop, meta_sources=meta_sources)
            fresh = self.pool.allocate()
            self.stats.metadata_registers_allocated += 1
            self.stats.select_allocations += 1
            self._set_mapping(dest, fresh)
            return RenameResult(uop=uop, meta_sources=meta_sources, meta_dest=fresh)

        # Baseline µops: propagation policy depends on the macro opcode.
        if macro is None or uop.dest is None or not uop.dest.is_int:
            return RenameResult(uop=uop, meta_sources=meta_sources)

        opcode = macro.opcode

        if uop.kind is UopKind.LOAD:
            # The data load itself does not change metadata; the paired
            # SHADOW_LOAD (if any) installs it.  A non-pointer load leaves the
            # destination with no valid metadata.
            if not self.config.enabled:
                return RenameResult(uop=uop, meta_sources=meta_sources)
            self.invalidate(uop.dest)
            return RenameResult(uop=uop, meta_sources=meta_sources)

        if opcode in SINGLE_SOURCE_PROPAGATORS and self.config.copy_elimination:
            source_mapping = self.mapping_of(macro.srcs[0]) if macro.srcs else INVALID_MAPPING
            self.pool.add_reference(source_mapping)
            self._set_mapping(uop.dest, source_mapping)
            self.stats.metadata_copies_eliminated += 1
            return RenameResult(uop=uop, meta_sources=(source_mapping,),
                                meta_dest=source_mapping, eliminated_copy=True)

        if opcode in SINGLE_SOURCE_PROPAGATORS and not self.config.copy_elimination:
            # Ablation: without copy elimination the metadata must be copied
            # into a fresh physical register by an explicit µop (charged by
            # the caller); the mapping still updates.
            fresh = self.pool.allocate()
            self.stats.metadata_registers_allocated += 1
            self._set_mapping(uop.dest, fresh)
            return RenameResult(uop=uop, meta_sources=meta_sources, meta_dest=fresh)

        if opcode in NON_POINTER_PRODUCERS or opcode is Opcode.MOV_RI:
            self.invalidate(uop.dest)
            return RenameResult(uop=uop, meta_sources=meta_sources)

        if opcode in SELECT_PROPAGATORS:
            # The mapping is updated by the paired META_SELECT µop.
            return RenameResult(uop=uop, meta_sources=meta_sources)

        return RenameResult(uop=uop, meta_sources=meta_sources)

    # -- introspection -------------------------------------------------------------
    def live_metadata_registers(self) -> int:
        return self.pool.live_registers

    def mapped_registers(self) -> Dict[ArchReg, int]:
        return {reg: mapping for reg, mapping in self._maptable.items()
                if mapping != INVALID_MAPPING}
