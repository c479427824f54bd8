"""Tests for the program IR and builder."""

import pytest

from repro.errors import ProgramError
from repro.isa.instructions import Opcode, PointerHint
from repro.isa.registers import int_reg
from repro.program.builder import FunctionBuilder, ProgramBuilder
from repro.program.ir import Function, OpKind, Operation, Program


class TestOperationValidation:
    def test_malloc_requires_dest_and_size(self):
        with pytest.raises(ProgramError):
            Operation(kind=OpKind.MALLOC, dest=int_reg(1), size=0)
        with pytest.raises(ProgramError):
            Operation(kind=OpKind.MALLOC, size=8)

    def test_free_requires_source(self):
        with pytest.raises(ProgramError):
            Operation(kind=OpKind.FREE)

    def test_call_requires_callee(self):
        with pytest.raises(ProgramError):
            Operation(kind=OpKind.CALL)

    def test_macro_requires_instruction(self):
        with pytest.raises(ProgramError):
            Operation(kind=OpKind.MACRO)

    def test_str_rendering(self):
        op = Operation(kind=OpKind.MALLOC, dest=int_reg(1), size=64)
        assert "malloc" in str(op) and "r1" in str(op)


class TestProgramStructure:
    def test_duplicate_function_rejected(self):
        program = Program()
        program.add_function(Function("main"))
        with pytest.raises(ProgramError):
            program.add_function(Function("main"))

    def test_missing_entry_rejected(self):
        program = Program()
        program.add_function(Function("helper"))
        with pytest.raises(ProgramError):
            program.validate()

    def test_unknown_callee_rejected(self):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.call("missing")
        with pytest.raises(ProgramError):
            builder.build()

    def test_unknown_function_lookup(self):
        program = Program()
        with pytest.raises(ProgramError):
            program.function("nope")

    def test_static_operation_count(self):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.mov_imm("r1", 1).mov_imm("r2", 2)
        assert len(builder.build().function("main")) == 2


class TestBuilderApi:
    def test_methods_chain(self):
        function = (FunctionBuilder("f")
                    .mov_imm("r1", 5)
                    .add_imm("r2", "r1", 3)
                    .nop()
                    .build())
        assert len(function) == 3

    def test_load_store_emit_macro_operations(self):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 32)
            main.store("r1", "r2", 8)
            main.load("r3", "r1", 8)
        program = builder.build()
        kinds = [op.kind for op in program.function("main")]
        assert kinds == [OpKind.MALLOC, OpKind.MACRO, OpKind.MACRO]

    def test_pointer_annotated_helpers(self):
        builder = FunctionBuilder("f")
        builder.load_ptr("r1", "r2").store_ptr("r2", "r1")
        ops = builder.build().operations
        assert all(op.instruction.pointer_hint is PointerHint.POINTER for op in ops)

    def test_stack_alloc_grows_frame(self):
        builder = FunctionBuilder("f")
        builder.stack_alloc("r1", 32).stack_alloc("r2", 16)
        assert builder.build().frame_bytes == 48

    def test_fp_helpers_use_fp_opcodes(self):
        builder = FunctionBuilder("f")
        builder.fload("f1", "r2").fstore("r2", "f1")
        opcodes = [op.instruction.opcode for op in builder.build().operations]
        assert opcodes == [Opcode.FLOAD, Opcode.FSTORE]

    def test_invalid_access_size_rejected(self):
        with pytest.raises(ProgramError):
            FunctionBuilder("f").load("r1", "r2", size=3)

    def test_register_names_and_objects_interchangeable(self):
        builder = FunctionBuilder("f")
        builder.mov(int_reg(1), "r2")
        op = builder.build().operations[0]
        assert op.instruction.dest == int_reg(1)
        assert op.instruction.srcs == (int_reg(2),)

    def test_program_holds_each_functions_operations(self):
        builder = ProgramBuilder()
        with builder.function("helper") as helper:
            helper.nop().ret()
        with builder.function("main") as main:
            main.call("helper")
        program = builder.build()
        assert [op.kind for op in program.function("helper")] == \
            [OpKind.MACRO, OpKind.RETURN]  # the nop is the one macro
        assert [op.kind for op in program.function("main")] == [OpKind.CALL]
