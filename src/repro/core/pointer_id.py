"""Pointer load/store identification (§5).

Watchdog only needs to move metadata to/from the shadow space for memory
operations that might actually load or store a *pointer*.  Three identifiers
are provided:

* :class:`ConservativeIdentifier` (§5.1) — any 64-bit load/store to an
  integer register may be a pointer operation; floating-point and sub-word
  accesses are not.  Works on unmodified binaries.
* :class:`IsaAssistedIdentifier` (§5.2) — the ISA is extended with annotated
  load/store variants; the compiler marks pointer operations.  Unannotated
  operations fall back to the conservative rule.
* :class:`ProfileGuidedIdentifier` (§5.2, footnote 2) — the experimental aide
  used in the paper: a profiling run records which *static* memory operations
  ever load/store valid metadata; subsequent runs treat exactly those static
  operations as pointer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.isa.instructions import Instruction, PointerHint


@dataclass
class PointerIdStats:
    """Counts of memory operations classified as pointer / non-pointer."""

    memory_ops: int = 0
    pointer_ops: int = 0

    @property
    def pointer_fraction(self) -> float:
        """Fraction of memory accesses carrying metadata (Figure 5)."""
        if self.memory_ops == 0:
            return 0.0
        return self.pointer_ops / self.memory_ops


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


class ProfileGuidedIdentifier(PointerIdentifier):
    """§5.2 footnote 2: profile which static operations ever touch metadata.

    The profiling pass calls :meth:`observe` for every dynamic memory access,
    recording whether the access loaded/stored *valid* metadata.  Subsequent
    (measurement) runs treat a static operation as a pointer operation iff it
    ever did during profiling.
    """

    name = "profile-guided"

    def __init__(self) -> None:
        super().__init__()
        self._pointer_static_ids: Set[str] = set()
        self._observed_static_ids: Set[str] = set()

    @staticmethod
    def static_id(inst: Instruction) -> str:
        """Identity of the *static* instruction (label or structural key)."""
        if inst.label is not None:
            return inst.label
        return f"{inst.opcode.value}:{inst.dest}:{','.join(map(str, inst.srcs))}:{inst.imm}"

    def observe(self, inst: Instruction, touched_valid_metadata: bool) -> None:
        """Record a profiling observation for one dynamic access."""
        sid = self.static_id(inst)
        self._observed_static_ids.add(sid)
        if touched_valid_metadata:
            self._pointer_static_ids.add(sid)

    def _classify(self, inst: Instruction) -> bool:
        if not inst.may_carry_pointer:
            return False
        return self.static_id(inst) in self._pointer_static_ids

    @property
    def profiled_static_operations(self) -> int:
        return len(self._observed_static_ids)

    @property
    def pointer_static_operations(self) -> int:
        return len(self._pointer_static_ids)


def make_identifier(conservative: bool) -> PointerIdentifier:
    """Factory used by the Watchdog engine."""
    return ConservativeIdentifier() if conservative else IsaAssistedIdentifier()
