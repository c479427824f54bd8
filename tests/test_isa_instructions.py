"""Tests for the macro instruction set."""

import pytest

from repro.errors import ProgramError
from repro.isa.instructions import (
    AccessSize,
    Instruction,
    NON_POINTER_PRODUCERS,
    Opcode,
    PointerHint,
    SELECT_PROPAGATORS,
    SINGLE_SOURCE_PROPAGATORS,
    is_load_opcode,
    is_memory_opcode,
    is_store_opcode,
)
from repro.isa.registers import fp_reg, int_reg
from repro.sim.compiled import StreamCompiler

from tests.test_compiled_pipeline import CONFIGURATIONS


class TestOpcodeClasses:
    def test_load_store_classification(self):
        assert is_load_opcode(Opcode.LOAD)
        assert is_load_opcode(Opcode.FLOAD)
        assert is_store_opcode(Opcode.STORE)
        assert not is_load_opcode(Opcode.STORE)
        assert is_memory_opcode(Opcode.FSTORE)
        assert not is_memory_opcode(Opcode.ADD_RR)

    def test_propagation_classes_are_disjoint(self):
        assert not (SINGLE_SOURCE_PROPAGATORS & SELECT_PROPAGATORS)
        assert not (SINGLE_SOURCE_PROPAGATORS & NON_POINTER_PRODUCERS)

    def test_mul_and_div_never_produce_pointers(self):
        assert Opcode.MUL_RR in NON_POINTER_PRODUCERS
        assert Opcode.DIV_RR in NON_POINTER_PRODUCERS

    def test_add_immediate_propagates_metadata(self):
        assert Opcode.ADD_RI in SINGLE_SOURCE_PROPAGATORS

    def test_two_source_add_requires_select(self):
        assert Opcode.ADD_RR in SELECT_PROPAGATORS


class TestInstructionValidation:
    def test_load_requires_destination(self):
        with pytest.raises(ProgramError):
            Instruction(Opcode.LOAD, srcs=(int_reg(1),))

    def test_store_requires_two_sources(self):
        with pytest.raises(ProgramError):
            Instruction(Opcode.STORE, srcs=(int_reg(1),))

    def test_setident_requires_two_sources(self):
        with pytest.raises(ProgramError):
            Instruction(Opcode.SETIDENT, srcs=(int_reg(1),))

    def test_getident_requires_dest_and_source(self):
        with pytest.raises(ProgramError):
            Instruction(Opcode.GETIDENT, srcs=(int_reg(1),))

    def test_more_than_two_sources_rejected(self):
        with pytest.raises(ProgramError):
            Instruction(Opcode.ADD_RR, dest=int_reg(4),
                        srcs=(int_reg(1), int_reg(2), int_reg(3)))

    def test_setbounds_requires_a_pointer_register(self):
        with pytest.raises(ProgramError, match="setbounds"):
            Instruction(Opcode.SETBOUNDS)
        Instruction(Opcode.SETBOUNDS, srcs=(int_reg(1),))

    @pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.value)
    def test_no_operands_is_refused_or_compiles(self, opcode):
        """An instruction the constructor accepts never fails later, in
        the decoder or the injector, for lack of a register source."""
        try:
            inst = Instruction(opcode)
        except ProgramError:
            return
        for config in CONFIGURATIONS.values():
            assert StreamCompiler(config)._build_template(inst).n >= 1

    def test_srcs_normalised_to_tuple(self):
        inst = Instruction(Opcode.ADD_RR, dest=int_reg(1),
                           srcs=[int_reg(2), int_reg(3)])
        assert isinstance(inst.srcs, tuple)


class TestPointerCarrying:
    def test_word_integer_load_may_carry_pointer(self):
        inst = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                           size=AccessSize.WORD64)
        assert inst.may_carry_pointer

    def test_subword_load_cannot_carry_pointer(self):
        inst = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                           size=AccessSize.WORD32)
        assert not inst.may_carry_pointer

    def test_fp_load_cannot_carry_pointer(self):
        inst = Instruction(Opcode.FLOAD, dest=fp_reg(1), srcs=(int_reg(2),))
        assert not inst.may_carry_pointer

    def test_non_memory_instruction_cannot_carry_pointer(self):
        inst = Instruction(Opcode.ADD_RR, dest=int_reg(1),
                           srcs=(int_reg(2), int_reg(3)))
        assert not inst.may_carry_pointer

    def test_address_register_is_first_source(self):
        inst = Instruction(Opcode.STORE, srcs=(int_reg(4), int_reg(5)))
        assert inst.address_reg == int_reg(4)

    def test_default_hint_is_unknown(self):
        inst = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),))
        assert inst.pointer_hint is PointerHint.UNKNOWN

    def test_str_contains_opcode_and_registers(self):
        inst = Instruction(Opcode.ADD_RI, dest=int_reg(1), srcs=(int_reg(2),), imm=8)
        text = str(inst)
        assert "add_ri" in text and "r1" in text and "r2" in text and "#8" in text
