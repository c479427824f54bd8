"""The top-level Watchdog engine.

This object owns every piece of Watchdog state for one simulated process:

* the sidecar register metadata (§3.4) — functional view of what the
  decoupled metadata physical registers hold,
* the disjoint shadow metadata space (§3.3),
* the identifier table, key generator and lock-location allocator (§4.1),
* the hardware stack-frame identifier manager (Figure 3c/3d),
* the check unit (§3.2 / §8),
* the µop injector and pointer identification policy (§3 / §5),
* page accounting for the memory-overhead experiment (Figure 10).

The functional machine (:class:`repro.program.machine.Machine`) drives it:
for every macro instruction the machine asks the injector for the µop
sequence and calls back into the engine for the metadata semantics of the
injected µops.  The timing model replays the same µop stream.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.allocator.runtime import InstrumentedRuntime
from repro.core.checks import CheckOutcome, CheckUnit
from repro.core.config import WatchdogConfig
from repro.core.identifier import IdentifierTable
from repro.core.metadata import PointerMetadata
from repro.core.pointer_id import PointerIdentifier, make_identifier
from repro.core.stack_frames import StackFrameManager
from repro.core.uop_injection import UopInjector
from repro.isa.instructions import (
    Instruction,
    NON_POINTER_PRODUCERS,
    Opcode,
    SELECT_PROPAGATORS,
    SINGLE_SOURCE_PROPAGATORS,
)
from repro.isa.registers import ArchReg, STACK_POINTER
from repro.memory.address_space import AddressSpace
from repro.memory.pages import PageAccountant
from repro.memory.shadow import ShadowSpace


class Watchdog:
    """Functional model of the Watchdog hardware plus its software runtime."""

    def __init__(self, config: Optional[WatchdogConfig] = None,
                 memory: Optional[AddressSpace] = None,
                 pointer_identifier: Optional[PointerIdentifier] = None):
        self.config = config or WatchdogConfig()
        self.memory = memory or AddressSpace()
        self.shadow = ShadowSpace(self.memory.layout,
                                  metadata_words=self.config.metadata_words)
        self.identifiers = IdentifierTable(self.memory)
        self.runtime = InstrumentedRuntime(
            self.memory, identifiers=self.identifiers,
            track_bounds=self.config.bounds_enabled)
        self.checker = CheckUnit(self.memory)
        self.frames = StackFrameManager(self.memory,
                                        track_bounds=self.config.bounds_enabled)
        self.pointer_identifier = pointer_identifier or make_identifier(
            self.config.conservative)
        self.injector = UopInjector(self.config, self.pointer_identifier)
        self.pages = PageAccountant()
        #: Sidecar register metadata (None = the "−" invalid mapping).
        self.register_metadata: Dict[ArchReg, Optional[PointerMetadata]] = {}
        # The stack pointer starts out with the initial frame's identifier.
        if self.config.enabled:
            self.register_metadata[STACK_POINTER] = self.frames.current_frame_metadata()

    # ------------------------------------------------------------------ registers
    def get_register_metadata(self, reg: ArchReg) -> Optional[PointerMetadata]:
        return self.register_metadata.get(reg)

    def set_register_metadata(self, reg: ArchReg,
                              metadata: Optional[PointerMetadata]) -> None:
        if metadata is None:
            self.register_metadata.pop(reg, None)
        else:
            self.register_metadata[reg] = metadata

    # ------------------------------------------------------------------ µop stream
    def expand(self, inst: Instruction):
        """Macro instruction -> µop sequence (decoder + injection)."""
        return self.injector.expand(inst)

    # ------------------------------------------------------------------ checks
    def check_access(self, address_reg: ArchReg, address: int, size: int,
                     pc: Optional[int] = None) -> CheckOutcome:
        """Functional semantics of the check (and fused/second bounds) µop;
        a violation raises :class:`~repro.errors.MemorySafetyViolation`."""
        if not self.config.enabled:
            return CheckOutcome.PASS
        metadata = self.get_register_metadata(address_reg)
        return self.checker.check_access(
            metadata, address, size,
            with_bounds=self.config.bounds_enabled,
            raise_on_failure=True, pc=pc)

    # ------------------------------------------------------------------ shadow space
    def shadow_load(self, dest_reg: ArchReg, address: int) -> Optional[PointerMetadata]:
        """SHADOW_LOAD semantics: install the metadata shadowing ``address``."""
        metadata = self.shadow.load(address)
        self.set_register_metadata(dest_reg, metadata)
        self.pages.touch_shadow(self.shadow.shadow_address(address),
                                size=self.config.metadata_words * 8)
        return metadata

    def shadow_store(self, address: int, value_reg: ArchReg) -> None:
        """SHADOW_STORE semantics: write the source register's metadata."""
        metadata = self.get_register_metadata(value_reg)
        self.shadow.store(address, metadata)
        self.pages.touch_shadow(self.shadow.shadow_address(address),
                                size=self.config.metadata_words * 8)

    def note_data_access(self, address: int, size: int) -> None:
        """Record a program data access for the Figure 10 accounting."""
        self.pages.touch_data(address, size)

    # ------------------------------------------------------------------ propagation
    def propagate(self, inst: Instruction) -> None:
        """Functional metadata propagation for register-to-register ops (§6.2).

        In hardware this is mostly folded into rename (copy elimination); the
        functional effect on the sidecar values is what is modelled here.
        """
        if not self.config.enabled or inst.dest is None or not inst.dest.is_int:
            return
        op = inst.opcode
        if op in SINGLE_SOURCE_PROPAGATORS:
            source_meta = self.get_register_metadata(inst.srcs[0]) if inst.srcs else None
            self.set_register_metadata(inst.dest, source_meta)
        elif op in SELECT_PROPAGATORS:
            first = self.get_register_metadata(inst.srcs[0])
            second = self.get_register_metadata(inst.srcs[1]) if len(inst.srcs) > 1 else None
            # "selects the metadata from whichever register has valid
            # metadata" (§6.2); prefer the first source on a tie.
            self.set_register_metadata(inst.dest, first if first is not None else second)
        elif op is Opcode.LEA_GLOBAL:
            self.set_register_metadata(inst.dest, self.global_metadata())
        elif op in NON_POINTER_PRODUCERS or op is Opcode.MOV_RI:
            self.set_register_metadata(inst.dest, None)

    def note_non_pointer_load(self, dest_reg: ArchReg) -> None:
        """A load not classified as a pointer load leaves no valid metadata."""
        if self.config.enabled:
            self.set_register_metadata(dest_reg, None)

    # ------------------------------------------------------------------ calls / returns
    def on_call(self) -> None:
        """LOCK_PUSH semantics (Figure 3c)."""
        if not self.config.enabled:
            return
        self.frames.on_call()
        self.set_register_metadata(STACK_POINTER, self.frames.current_frame_metadata())

    def on_return(self) -> None:
        """LOCK_POP semantics (Figure 3d)."""
        if not self.config.enabled:
            return
        self.frames.on_return()
        self.set_register_metadata(STACK_POINTER, self.frames.current_frame_metadata())

    # ------------------------------------------------------------------ runtime interface
    def malloc(self, size: int, dest_reg: ArchReg) -> int:
        """Software runtime malloc + ``setident`` into ``dest_reg`` (Fig 3a)."""
        pointer, metadata = self.runtime.malloc(size)
        if self.config.enabled:
            self.set_register_metadata(dest_reg, metadata)
        return pointer

    def free(self, pointer_reg: ArchReg, pointer: int) -> None:
        """Software runtime free using ``getident`` on ``pointer_reg`` (Fig 3b)."""
        metadata = self.get_register_metadata(pointer_reg) if self.config.enabled else None
        if not self.config.enabled:
            # Unprotected baseline: free blindly, reproducing the unsafe
            # behaviour the paper is defending against.
            record = self.runtime.record_for(pointer)
            if record is not None:
                self.identifiers.invalidate(record.identifier)
                self.runtime._live.pop(pointer, None)
                self.runtime.allocator.free(pointer)
            return
        self.runtime.free(pointer, metadata)

    # ------------------------------------------------------------------ globals
    def global_metadata(self) -> PointerMetadata:
        """Metadata carrying the single always-valid global identifier (§7)."""
        identifier = self.identifiers.global_identifier()
        if self.config.bounds_enabled:
            seg = self.memory.layout.globals_seg
            return PointerMetadata(identifier=identifier, base=seg.base, bound=seg.limit)
        return PointerMetadata(identifier=identifier)

    def initialize_global_pointer(self, address: int) -> None:
        """Initialize shadow metadata for an initialized global pointer (§7)."""
        self.shadow.store(address, self.global_metadata())

    # ------------------------------------------------------------------ statistics
    @property
    def injection_stats(self):
        return self.injector.stats

    @property
    def pointer_id_stats(self):
        return self.pointer_identifier.stats
