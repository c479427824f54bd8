"""Compiler support: the pointer-annotation pass for ISA-assisted
identification (§5.2).

With ISA-assisted identification, "the compiler, which generally knows which
operations are manipulating pointers, is responsible for conservatively
selecting the proper load/store variants".  This pass plays that role for
programs built through :mod:`repro.program.builder`: it performs a simple
abstract interpretation over each function, tracking which registers may hold
pointers (values produced by ``malloc``, ``stack_alloc``, ``global_addr``, or
propagated through moves and pointer arithmetic), and rewrites the
``pointer_hint`` of every 64-bit integer load/store accordingly:

* a store whose *value* register may hold a pointer → ``POINTER`` variant,
* a load whose destination is later used as an address, or that reads a slot
  a pointer was stored to → ``POINTER`` variant (approximated conservatively:
  loads from a base register that has had a pointer stored through it are
  annotated as pointer loads),
* everything else → ``NOT_POINTER`` variant.

The pass is conservative in the direction the paper requires: when in doubt a
memory operation keeps (or gains) the pointer annotation, never loses one it
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.isa.instructions import (
    Instruction,
    Opcode,
    PointerHint,
    SELECT_PROPAGATORS,
    SINGLE_SOURCE_PROPAGATORS,
    NON_POINTER_PRODUCERS,
)
from repro.isa.registers import ArchReg, STACK_POINTER
from repro.program.ir import OpKind, Program


@dataclass
class PointerAnnotationStats:
    """What the pass did, for reporting and tests."""

    loads_annotated_pointer: int = 0
    loads_annotated_non_pointer: int = 0
    stores_annotated_pointer: int = 0
    stores_annotated_non_pointer: int = 0


def _may_hold_pointer_after(inst: Instruction, pointers: Set[ArchReg]) -> None:
    """Update the may-hold-pointer register set for one ALU instruction."""
    if inst.dest is None or not inst.dest.is_int:
        return
    op = inst.opcode
    if op in SINGLE_SOURCE_PROPAGATORS:
        if inst.srcs and inst.srcs[0] in pointers:
            pointers.add(inst.dest)
        else:
            pointers.discard(inst.dest)
    elif op in SELECT_PROPAGATORS:
        if any(src in pointers for src in inst.srcs):
            pointers.add(inst.dest)
        else:
            pointers.discard(inst.dest)
    elif op is Opcode.LEA_GLOBAL:
        pointers.add(inst.dest)
    elif op in NON_POINTER_PRODUCERS or op is Opcode.MOV_RI:
        pointers.discard(inst.dest)


def annotate_pointer_hints(program: Program) -> PointerAnnotationStats:
    """Rewrite load/store pointer hints in place; return statistics."""
    stats = PointerAnnotationStats()

    for function in program.functions.values():
        # Registers that may currently hold a pointer.
        pointers: Set[ArchReg] = {STACK_POINTER}
        # Alias groups: registers produced by copying/offsetting one another
        # share a group id, so a pointer stored through one alias is visible
        # to loads through any of its aliases (keeps the pass conservative).
        alias_group: Dict[ArchReg, int] = {}
        next_group = [0]
        # Alias groups through which a pointer value has been stored; loads
        # through a register of such a group may read a pointer back.
        pointer_base_groups: Set[int] = set()

        def group_of(register: ArchReg) -> int:
            if register not in alias_group:
                alias_group[register] = next_group[0]
                next_group[0] += 1
            return alias_group[register]

        def fresh_group(register: ArchReg) -> None:
            alias_group[register] = next_group[0]
            next_group[0] += 1

        for operation in function:
            if operation.kind is OpKind.MALLOC or operation.kind is OpKind.STACK_ALLOC \
                    or operation.kind is OpKind.GLOBAL_ADDR:
                assert operation.dest is not None
                pointers.add(operation.dest)
                fresh_group(operation.dest)
                continue
            if operation.kind is OpKind.FREE:
                continue
            if operation.kind is not OpKind.MACRO:
                continue

            inst = operation.instruction
            assert inst is not None

            if inst.opcode is Opcode.STORE:
                value_reg = inst.srcs[1]
                if inst.may_carry_pointer and value_reg in pointers:
                    inst.pointer_hint = PointerHint.POINTER
                    pointer_base_groups.add(group_of(inst.srcs[0]))
                    stats.stores_annotated_pointer += 1
                else:
                    inst.pointer_hint = PointerHint.NOT_POINTER
                    stats.stores_annotated_non_pointer += 1
                continue

            if inst.opcode is Opcode.LOAD:
                base_reg = inst.srcs[0]
                if inst.may_carry_pointer and group_of(base_reg) in pointer_base_groups:
                    inst.pointer_hint = PointerHint.POINTER
                    if inst.dest is not None:
                        pointers.add(inst.dest)
                        fresh_group(inst.dest)
                    stats.loads_annotated_pointer += 1
                else:
                    inst.pointer_hint = PointerHint.NOT_POINTER
                    if inst.dest is not None:
                        pointers.discard(inst.dest)
                        fresh_group(inst.dest)
                    stats.loads_annotated_non_pointer += 1
                continue

            if inst.opcode in (Opcode.FLOAD, Opcode.FSTORE):
                inst.pointer_hint = PointerHint.NOT_POINTER
                continue

            _may_hold_pointer_after(inst, pointers)
            # Maintain alias groups: copies and pointer arithmetic keep the
            # source's group; anything else defines a fresh value.
            if inst.dest is not None and inst.dest.is_int:
                if inst.opcode in SINGLE_SOURCE_PROPAGATORS and inst.srcs:
                    alias_group[inst.dest] = group_of(inst.srcs[0])
                else:
                    fresh_group(inst.dest)

    return stats
