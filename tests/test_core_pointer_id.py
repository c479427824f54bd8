"""Tests for pointer load/store identification (§5)."""

import pytest

from repro.core.pointer_id import (
    ConservativeIdentifier,
    IsaAssistedIdentifier,
    make_identifier,
)
from repro.isa.instructions import AccessSize, Instruction, Opcode, PointerHint
from repro.isa.registers import fp_reg, int_reg
from repro.sim.results import CellResult
from repro.sim.simulator import SimulationOutcome


def word_load(hint=PointerHint.UNKNOWN):
    return Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                       size=AccessSize.WORD64, pointer_hint=hint)


def subword_load():
    return Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                       size=AccessSize.WORD32)


def fp_load():
    return Instruction(Opcode.FLOAD, dest=fp_reg(0), srcs=(int_reg(2),))


class TestConservative:
    def test_word_integer_access_is_pointer_candidate(self):
        assert ConservativeIdentifier().is_pointer_operation(word_load())

    def test_subword_access_is_not(self):
        assert not ConservativeIdentifier().is_pointer_operation(subword_load())

    def test_fp_access_is_not(self):
        assert not ConservativeIdentifier().is_pointer_operation(fp_load())

    def test_annotations_are_ignored(self):
        """Conservative mode models an unannotated binary (§5.1)."""
        identifier = ConservativeIdentifier()
        assert identifier.is_pointer_operation(word_load(PointerHint.NOT_POINTER))

    def test_non_memory_instruction_rejected(self):
        inst = Instruction(Opcode.ADD_RR, dest=int_reg(1), srcs=(int_reg(2), int_reg(3)))
        assert not ConservativeIdentifier().is_pointer_operation(inst)

    def test_stats_track_fraction(self):
        identifier = ConservativeIdentifier()
        identifier.is_pointer_operation(word_load())
        identifier.is_pointer_operation(subword_load())
        assert identifier.stats.memory_ops == 2
        # Figure 5 reads the fraction off the cell these counts fill.
        cell = CellResult.from_outcome(SimulationOutcome(
            "b", "c", pointer_stats=identifier.stats))
        assert cell.pointer_fraction == pytest.approx(0.5)


class TestIsaAssisted:
    def test_pointer_annotation_respected(self):
        assert IsaAssistedIdentifier().is_pointer_operation(word_load(PointerHint.POINTER))

    def test_not_pointer_annotation_respected(self):
        assert not IsaAssistedIdentifier().is_pointer_operation(
            word_load(PointerHint.NOT_POINTER))

    def test_unannotated_falls_back_to_conservative(self):
        assert IsaAssistedIdentifier().is_pointer_operation(word_load(PointerHint.UNKNOWN))

    def test_pointer_annotation_on_subword_ignored(self):
        inst = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                           size=AccessSize.WORD32, pointer_hint=PointerHint.POINTER)
        assert not IsaAssistedIdentifier().is_pointer_operation(inst)

    def test_isa_assisted_classifies_fewer_than_conservative(self):
        conservative = ConservativeIdentifier()
        assisted = IsaAssistedIdentifier()
        stream = [word_load(PointerHint.POINTER), word_load(PointerHint.NOT_POINTER),
                  word_load(PointerHint.NOT_POINTER), subword_load(), fp_load()]
        for inst in stream:
            conservative.is_pointer_operation(inst)
            assisted.is_pointer_operation(inst)
        assert assisted.stats.pointer_ops < conservative.stats.pointer_ops


class TestFactory:
    def test_make_identifier(self):
        assert isinstance(make_identifier(True), ConservativeIdentifier)
        assert isinstance(make_identifier(False), IsaAssistedIdentifier)
