"""Tests for the pointer-annotation compiler pass (§5.2)."""

from repro.isa.instructions import Opcode, PointerHint
from repro.program.builder import ProgramBuilder
from repro.program.compiler import (
    PointerAnnotationStats,
    annotate_pointer_hints,
)


def hints_of(program, function="main"):
    return [op.instruction.pointer_hint
            for op in program.function(function)
            if op.kind.value == "macro" and op.instruction.opcode in
            (Opcode.LOAD, Opcode.STORE)]


class TestStoreAnnotation:
    def test_store_of_malloc_result_is_pointer_store(self):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.malloc("r2", 64)
            main.store("r2", "r1")       # table[0] = p
        program = builder.build()
        stats = annotate_pointer_hints(program)
        assert hints_of(program) == [PointerHint.POINTER]
        assert stats.stores_annotated_pointer == 1

    def test_store_of_constant_is_not_pointer_store(self):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.mov_imm("r8", 5)
            main.store("r1", "r8")
        program = builder.build()
        annotate_pointer_hints(program)
        assert hints_of(program) == [PointerHint.NOT_POINTER]

    def test_pointer_status_follows_copies_and_arithmetic(self):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.add_imm("r2", "r1", 8)    # still a pointer
            main.malloc("r3", 64)
            main.store("r3", "r2")
        program = builder.build()
        annotate_pointer_hints(program)
        assert hints_of(program) == [PointerHint.POINTER]

    def test_multiply_kills_pointerness(self):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.mul("r2", "r1", "r1")
            main.malloc("r3", 64)
            main.store("r3", "r2")
        program = builder.build()
        annotate_pointer_hints(program)
        assert hints_of(program) == [PointerHint.NOT_POINTER]


class TestLoadAnnotation:
    def test_load_from_pointer_table_is_pointer_load(self):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.malloc("r2", 64)
            main.store("r2", "r1")         # pointer stored through r2
            main.load("r3", "r2")          # reload it
        program = builder.build()
        annotate_pointer_hints(program)
        assert hints_of(program) == [PointerHint.POINTER, PointerHint.POINTER]

    def test_plain_data_load_is_not_pointer_load(self):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.load("r3", "r1")
        program = builder.build()
        annotate_pointer_hints(program)
        assert hints_of(program) == [PointerHint.NOT_POINTER]

    def test_subword_accesses_never_annotated_pointer(self):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.malloc("r2", 64)
            main.store("r2", "r1", size=4)
            main.load("r3", "r2", size=4)
        program = builder.build()
        annotate_pointer_hints(program)
        assert all(h is PointerHint.NOT_POINTER for h in hints_of(program))

    def test_stack_and_global_addresses_count_as_pointers(self):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.stack_alloc("r1", 16)
            main.global_addr("r2", 0)
            main.store("r2", "r1")
        program = builder.build()
        annotate_pointer_hints(program)
        assert hints_of(program) == [PointerHint.POINTER]

    def test_stats_cover_all_word_memory_operations(self):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.store("r1", "r1")
            main.load("r2", "r1")
            main.fload("f0", "r1")
        program = builder.build()
        stats = annotate_pointer_hints(program)
        # The word load and store are annotated; the FP load is not.
        assert PointerAnnotationStats(
            loads_annotated_pointer=1, stores_annotated_pointer=1) == stats

    def test_annotation_reduces_isa_assisted_classification(self):
        """End to end: the pass should make ISA-assisted identification treat
        fewer memory accesses as pointer ops than conservative identification."""
        from repro.core.pointer_id import ConservativeIdentifier, IsaAssistedIdentifier
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.mov_imm("r8", 1)
            for _ in range(5):
                main.store("r1", "r8")
            main.malloc("r2", 64)
            main.store("r2", "r1")
        program = builder.build()
        annotate_pointer_hints(program)
        conservative, assisted = ConservativeIdentifier(), IsaAssistedIdentifier()
        for op in program.function("main"):
            if op.kind.value == "macro" and op.instruction.is_memory:
                conservative.is_pointer_operation(op.instruction)
                assisted.is_pointer_operation(op.instruction)
        assert assisted.stats.pointer_ops < conservative.stats.pointer_ops
