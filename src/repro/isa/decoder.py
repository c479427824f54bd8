"""Decoder: crack macro instructions into baseline µops.

The decoder produces only the *baseline* µops of the original program.  The
Watchdog µops (checks, shadow accesses, metadata selects, stack-frame
identifier management) are injected afterwards by
:class:`repro.core.uop_injection.UopInjector`, which wraps this decoder.  This
mirrors the paper's structure: the core's decoder is unchanged and Watchdog
augments instruction execution by injecting extra µops (§3).
"""

from __future__ import annotations

from typing import List

from repro.errors import ProgramError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.microops import MicroOp, UopKind
from repro.isa.registers import STACK_POINTER

#: Macro opcode -> µop kind for the simple one-to-one cases.
_SIMPLE_ALU = {
    Opcode.MOV_RR: UopKind.ALU,
    Opcode.MOV_RI: UopKind.ALU,
    Opcode.ADD_RR: UopKind.ALU,
    Opcode.ADD_RI: UopKind.ALU,
    Opcode.SUB_RR: UopKind.ALU,
    Opcode.SUB_RI: UopKind.ALU,
    Opcode.AND_RR: UopKind.ALU,
    Opcode.OR_RR: UopKind.ALU,
    Opcode.XOR_RR: UopKind.ALU,
    Opcode.SHL_RI: UopKind.ALU,
    Opcode.SHR_RI: UopKind.ALU,
    Opcode.CMP_RR: UopKind.ALU,
    Opcode.CMP_RI: UopKind.ALU,
    Opcode.ADD32_RR: UopKind.ALU,
    Opcode.LEA: UopKind.ALU,
    Opcode.LEA_GLOBAL: UopKind.ALU,
    Opcode.MUL_RR: UopKind.MUL,
    Opcode.DIV_RR: UopKind.DIV,
    Opcode.FADD: UopKind.FP,
    Opcode.FMUL: UopKind.FP,
    Opcode.FDIV: UopKind.FP,
    Opcode.FMOV: UopKind.FP,
}


class Decoder:
    """Cracks macro instructions into baseline µop sequences."""

    def decode(self, inst: Instruction) -> List[MicroOp]:
        """Return the baseline µops for ``inst`` (no Watchdog µops)."""
        op = inst.opcode

        if op in _SIMPLE_ALU:
            return [MicroOp(kind=_SIMPLE_ALU[op], dest=inst.dest, srcs=inst.srcs,
                            imm=inst.imm)]

        if op in (Opcode.LOAD, Opcode.FLOAD):
            return [MicroOp(kind=UopKind.LOAD, dest=inst.dest, srcs=(inst.srcs[0],),
                            imm=inst.imm, size=inst.size)]

        if op in (Opcode.STORE, Opcode.FSTORE):
            return [MicroOp(kind=UopKind.STORE, dest=None, srcs=inst.srcs,
                            imm=inst.imm, size=inst.size)]

        if op is Opcode.BRANCH or op is Opcode.JUMP:
            return [MicroOp(kind=UopKind.BRANCH, dest=None, srcs=inst.srcs,
                            imm=inst.imm)]

        if op is Opcode.CALL:
            # A call adjusts the stack pointer and transfers control; model as
            # one ALU µop (stack adjust) plus a branch µop.
            return [
                MicroOp(kind=UopKind.ALU, dest=STACK_POINTER, srcs=(STACK_POINTER,),
                        imm=-8),
                MicroOp(kind=UopKind.BRANCH, dest=None, srcs=(), imm=inst.imm),
            ]

        if op is Opcode.RET:
            return [
                MicroOp(kind=UopKind.ALU, dest=STACK_POINTER, srcs=(STACK_POINTER,),
                        imm=8),
                MicroOp(kind=UopKind.BRANCH, dest=None, srcs=()),
            ]

        if op is Opcode.SETIDENT:
            return [MicroOp(kind=UopKind.SETIDENT, dest=None, srcs=inst.srcs,
                            meta_srcs=(inst.srcs[1],), meta_dest=inst.srcs[0])]

        if op is Opcode.GETIDENT:
            return [MicroOp(kind=UopKind.GETIDENT, dest=inst.dest, srcs=inst.srcs,
                            meta_srcs=(inst.srcs[0],))]

        if op is Opcode.SETBOUNDS:
            return [MicroOp(kind=UopKind.SETBOUNDS, dest=None, srcs=inst.srcs,
                            meta_dest=inst.srcs[0], imm=inst.imm)]

        if op is Opcode.NOP or op is Opcode.HALT:
            return [MicroOp(kind=UopKind.NOP)]

        raise ProgramError(f"decoder does not handle opcode {op}")

