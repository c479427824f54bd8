"""Pointer load/store identification (§5).

Watchdog only needs to move metadata to/from the shadow space for memory
operations that might actually load or store a *pointer*.  Two identifiers
are provided:

* :class:`ConservativeIdentifier` (§5.1) — any 64-bit load/store to an
  integer register may be a pointer operation; floating-point and sub-word
  accesses are not.  Works on unmodified binaries.
* :class:`IsaAssistedIdentifier` (§5.2) — the ISA is extended with annotated
  load/store variants; the compiler marks pointer operations.  Unannotated
  operations fall back to the conservative rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Instruction, PointerHint


@dataclass
class PointerIdStats:
    """Counts of memory operations classified as pointer / non-pointer."""

    memory_ops: int = 0
    pointer_ops: int = 0


class PointerIdentifier:
    """Base class: decides whether a memory instruction is a pointer op."""

    name = "base"

    def __init__(self) -> None:
        self.stats = PointerIdStats()

    def is_pointer_operation(self, inst: Instruction) -> bool:
        """Classify ``inst``; updates the Figure 5 statistics."""
        if not inst.is_memory:
            return False
        decision = self._classify(inst)
        self.stats.memory_ops += 1
        if decision:
            self.stats.pointer_ops += 1
        return decision

    def _classify(self, inst: Instruction) -> bool:
        raise NotImplementedError


class ConservativeIdentifier(PointerIdentifier):
    """§5.1: any aligned 64-bit integer load/store may carry a pointer."""

    name = "conservative"

    def _classify(self, inst: Instruction) -> bool:
        return inst.may_carry_pointer


class IsaAssistedIdentifier(PointerIdentifier):
    """§5.2: trust the compiler's pointer/non-pointer load/store variants."""

    name = "isa-assisted"

    def _classify(self, inst: Instruction) -> bool:
        if inst.pointer_hint is PointerHint.POINTER:
            # The annotation is only meaningful for accesses that can hold a
            # word-sized pointer in the first place.
            return inst.may_carry_pointer
        if inst.pointer_hint is PointerHint.NOT_POINTER:
            return False
        # Unannotated code (e.g. an un-recompiled library) falls back to the
        # conservative heuristic.
        return inst.may_carry_pointer


def make_identifier(conservative: bool) -> PointerIdentifier:
    """Factory used by the Watchdog engine."""
    return ConservativeIdentifier() if conservative else IsaAssistedIdentifier()
