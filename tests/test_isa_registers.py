"""Tests for the architectural register model."""

import pytest

from repro.errors import ProgramError
from repro.isa.registers import (
    ArchReg,
    FP_REGS,
    INT_REGS,
    RegClass,
    RegisterFile,
    STACK_POINTER,
    WORD_MASK,
    fp_reg,
    int_reg,
    parse_reg,
)


class TestArchReg:
    def test_int_register_str(self):
        assert str(int_reg(3)) == "r3"

    def test_fp_register_str(self):
        assert str(fp_reg(5)) == "f5"

    def test_register_classes(self):
        assert int_reg(0).is_int and int_reg(0).regclass is RegClass.INT
        assert fp_reg(0).regclass is RegClass.FP and not fp_reg(0).is_int

    def test_register_counts(self):
        assert len(INT_REGS) == 16
        assert len(FP_REGS) == 16

    def test_stack_pointer_is_integer_register(self):
        assert STACK_POINTER.is_int
        assert STACK_POINTER in INT_REGS

    def test_out_of_range_raises(self):
        with pytest.raises(ProgramError):
            int_reg(16)
        with pytest.raises(ProgramError):
            fp_reg(-1)

    @pytest.mark.parametrize("regclass,index", (
        (RegClass.INT, 40), (RegClass.INT, 16), (RegClass.INT, -1),
        (RegClass.FP, 16), (RegClass.FP, 63)))
    def test_constructor_rejects_out_of_range_index(self, regclass, index):
        # Such a register used to reach the timing model, where the native
        # scheduler (64 scoreboard slots) timed it and the Python scheduler
        # (NUM_REG_SLOTS = 32) raised IndexError.
        with pytest.raises(ProgramError):
            ArchReg(regclass, index)

    def test_registers_are_hashable_and_comparable(self):
        assert int_reg(2) == ArchReg(RegClass.INT, 2)
        assert len({int_reg(1), int_reg(1), int_reg(2)}) == 2


class TestParseReg:
    def test_parse_int(self):
        assert parse_reg("r7") == int_reg(7)

    def test_parse_fp(self):
        assert parse_reg("f2") == fp_reg(2)

    def test_parse_strips_whitespace_and_case(self):
        assert parse_reg(" R4 ") == int_reg(4)

    def test_parse_invalid(self):
        with pytest.raises(ProgramError):
            parse_reg("x9")
        with pytest.raises(ProgramError):
            parse_reg("r")


class TestRegisterFile:
    def test_unwritten_register_reads_zero(self):
        assert RegisterFile().read(int_reg(3)) == 0

    def test_write_read_roundtrip(self):
        regs = RegisterFile()
        regs.write(int_reg(1), 0x1234)
        assert regs.read(int_reg(1)) == 0x1234

    def test_values_masked_to_64_bits(self):
        regs = RegisterFile()
        regs.write(int_reg(1), (1 << 70) + 5)
        assert regs.read(int_reg(1)) == ((1 << 70) + 5) & WORD_MASK

    def test_indexing_syntax(self):
        regs = RegisterFile()
        regs[int_reg(2)] = 99
        assert regs[int_reg(2)] == 99
