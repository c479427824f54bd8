"""Tests for the macro-to-µop decoder (baseline µops only)."""

import pytest

from repro.isa.decoder import Decoder
from repro.isa.instructions import AccessSize, Instruction, Opcode
from repro.isa.microops import UopKind
from repro.isa.registers import STACK_POINTER, int_reg


@pytest.fixture
def decoder():
    return Decoder()


class TestSimpleDecoding:
    def test_alu_decodes_to_single_uop(self, decoder):
        inst = Instruction(Opcode.ADD_RR, dest=int_reg(1),
                           srcs=(int_reg(2), int_reg(3)))
        uops = decoder.decode(inst)
        assert len(uops) == 1
        assert uops[0].kind is UopKind.ALU

    def test_mul_uses_mul_unit(self, decoder):
        inst = Instruction(Opcode.MUL_RR, dest=int_reg(1),
                           srcs=(int_reg(2), int_reg(3)))
        assert decoder.decode(inst)[0].kind is UopKind.MUL

    def test_div_uses_div_unit(self, decoder):
        inst = Instruction(Opcode.DIV_RR, dest=int_reg(1),
                           srcs=(int_reg(2), int_reg(3)))
        assert decoder.decode(inst)[0].kind is UopKind.DIV

    def test_fp_add_uses_fp_unit(self, decoder):
        from repro.isa.registers import fp_reg
        inst = Instruction(Opcode.FADD, dest=fp_reg(1), srcs=(fp_reg(2), fp_reg(3)))
        assert decoder.decode(inst)[0].kind is UopKind.FP

    def test_load_decodes_to_load_uop_with_size(self, decoder):
        inst = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                           imm=16, size=AccessSize.WORD32)
        uops = decoder.decode(inst)
        assert len(uops) == 1
        assert uops[0].kind is UopKind.LOAD
        assert uops[0].imm == 16
        assert uops[0].size is AccessSize.WORD32

    def test_store_decodes_to_store_uop(self, decoder):
        inst = Instruction(Opcode.STORE, srcs=(int_reg(2), int_reg(3)))
        uops = decoder.decode(inst)
        assert uops[0].kind is UopKind.STORE
        assert uops[0].srcs == (int_reg(2), int_reg(3))

    def test_nop_and_halt(self, decoder):
        assert decoder.decode(Instruction(Opcode.NOP))[0].kind is UopKind.NOP
        assert decoder.decode(Instruction(Opcode.HALT))[0].kind is UopKind.NOP


class TestCallReturnDecoding:
    def test_call_produces_stack_adjust_and_branch(self, decoder):
        uops = decoder.decode(Instruction(Opcode.CALL))
        kinds = [u.kind for u in uops]
        assert UopKind.BRANCH in kinds
        assert any(u.dest == STACK_POINTER for u in uops)

    def test_ret_produces_stack_adjust_and_branch(self, decoder):
        uops = decoder.decode(Instruction(Opcode.RET))
        assert [u.kind for u in uops].count(UopKind.BRANCH) == 1


class TestRuntimeInterfaceDecoding:
    def test_setident_decodes_to_setident_uop(self, decoder):
        inst = Instruction(Opcode.SETIDENT, srcs=(int_reg(1), int_reg(2)))
        uops = decoder.decode(inst)
        assert uops[0].kind is UopKind.SETIDENT
        assert uops[0].meta_dest == int_reg(1)

    def test_getident_decodes_to_getident_uop(self, decoder):
        inst = Instruction(Opcode.GETIDENT, dest=int_reg(3), srcs=(int_reg(1),))
        assert decoder.decode(inst)[0].kind is UopKind.GETIDENT

    def test_baseline_uops_are_not_marked_injected(self, decoder):
        inst = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),))
        assert not decoder.decode(inst)[0].is_injected
