"""Tests for the top-level Watchdog engine."""

import pytest

from repro.core.checks import CheckOutcome
from repro.core.config import WatchdogConfig
from repro.core.watchdog import Watchdog
from repro.errors import DoubleFreeError, UseAfterFreeError
from repro.isa.instructions import Instruction, Opcode, PointerHint
from repro.isa.registers import STACK_POINTER, int_reg


class TestRegisterMetadata:
    def test_malloc_attaches_metadata_to_register(self, watchdog):
        pointer = watchdog.malloc(64, int_reg(1))
        metadata = watchdog.get_register_metadata(int_reg(1))
        assert metadata is not None
        assert watchdog.identifiers.is_valid(metadata.identifier)
        assert watchdog.memory.layout.heap.contains(pointer)

    def test_stack_pointer_has_metadata_at_reset(self, watchdog):
        assert watchdog.get_register_metadata(STACK_POINTER) is not None

    def test_set_none_clears(self, watchdog):
        watchdog.malloc(8, int_reg(1))
        watchdog.set_register_metadata(int_reg(1), None)
        assert watchdog.get_register_metadata(int_reg(1)) is None


class TestChecks:
    def test_access_through_live_pointer_passes(self, watchdog):
        pointer = watchdog.malloc(64, int_reg(1))
        outcome = watchdog.check_access(int_reg(1), pointer, 8)
        assert outcome is CheckOutcome.PASS

    def test_access_after_free_raises(self, watchdog):
        pointer = watchdog.malloc(64, int_reg(1))
        watchdog.free(int_reg(1), pointer)
        with pytest.raises(UseAfterFreeError):
            watchdog.check_access(int_reg(1), pointer, 8)

    def test_access_after_free_and_reallocation_raises(self, watchdog):
        pointer = watchdog.malloc(64, int_reg(1))
        watchdog.set_register_metadata(int_reg(2),
                                       watchdog.get_register_metadata(int_reg(1)))
        watchdog.free(int_reg(1), pointer)
        watchdog.malloc(64, int_reg(3))      # reuses the chunk
        with pytest.raises(UseAfterFreeError):
            watchdog.check_access(int_reg(2), pointer, 8)

    def test_double_free_raises(self, watchdog):
        pointer = watchdog.malloc(64, int_reg(1))
        metadata = watchdog.get_register_metadata(int_reg(1))
        watchdog.free(int_reg(1), pointer)
        watchdog.malloc(64, int_reg(3))
        watchdog.set_register_metadata(int_reg(1), metadata)
        with pytest.raises(DoubleFreeError):
            watchdog.free(int_reg(1), pointer)

    def test_disabled_watchdog_never_checks(self):
        watchdog = Watchdog(WatchdogConfig.disabled())
        pointer = watchdog.malloc(64, int_reg(1))
        watchdog.free(int_reg(1), pointer)
        assert watchdog.check_access(int_reg(1), pointer, 8) is CheckOutcome.PASS


class TestShadowAndPropagation:
    def test_shadow_store_load_roundtrip(self, watchdog):
        watchdog.malloc(64, int_reg(1))
        table = watchdog.malloc(64, int_reg(2))
        watchdog.shadow_store(table, int_reg(1))
        watchdog.shadow_load(int_reg(5), table)
        assert watchdog.get_register_metadata(int_reg(5)) == \
            watchdog.get_register_metadata(int_reg(1))

    def test_propagate_single_source(self, watchdog):
        watchdog.malloc(64, int_reg(1))
        inst = Instruction(Opcode.ADD_RI, dest=int_reg(2), srcs=(int_reg(1),), imm=8)
        watchdog.propagate(inst)
        assert watchdog.get_register_metadata(int_reg(2)) == \
            watchdog.get_register_metadata(int_reg(1))

    def test_propagate_select_prefers_valid_source(self, watchdog):
        watchdog.malloc(64, int_reg(1))
        inst = Instruction(Opcode.ADD_RR, dest=int_reg(3),
                           srcs=(int_reg(9), int_reg(1)))
        watchdog.propagate(inst)
        assert watchdog.get_register_metadata(int_reg(3)) == \
            watchdog.get_register_metadata(int_reg(1))

    def test_propagate_invalidates_for_non_pointer_producers(self, watchdog):
        watchdog.malloc(64, int_reg(1))
        inst = Instruction(Opcode.MUL_RR, dest=int_reg(1),
                           srcs=(int_reg(1), int_reg(2)))
        watchdog.propagate(inst)
        assert watchdog.get_register_metadata(int_reg(1)) is None

    def test_global_metadata_always_valid(self, watchdog):
        metadata = watchdog.global_metadata()
        assert watchdog.identifiers.is_valid(metadata.identifier)
        outcome = watchdog.checker.identifier_check(
            metadata, watchdog.memory.layout.globals_seg.base)
        assert outcome is CheckOutcome.PASS

    def test_global_metadata_has_bounds_with_bounds_config(self):
        watchdog = Watchdog(WatchdogConfig.full_safety_fused())
        assert watchdog.global_metadata().has_bounds


class TestCallsAndFrames:
    def test_call_changes_stack_pointer_metadata(self, watchdog):
        before = watchdog.get_register_metadata(STACK_POINTER)
        watchdog.on_call()
        after = watchdog.get_register_metadata(STACK_POINTER)
        assert before.identifier != after.identifier
        watchdog.on_return()
        restored = watchdog.get_register_metadata(STACK_POINTER)
        assert restored.identifier == before.identifier

    def test_stale_frame_pointer_fails_after_return(self, watchdog):
        watchdog.on_call()
        frame_metadata = watchdog.frames.current_frame_metadata()
        watchdog.set_register_metadata(int_reg(4), frame_metadata)
        watchdog.on_return()
        with pytest.raises(UseAfterFreeError):
            watchdog.check_access(int_reg(4), 0x7000_0000, 8)

    def test_expand_delegates_to_injector(self, watchdog):
        inst = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),))
        assert len(watchdog.expand(inst)) >= 2
        assert watchdog.injection_stats.check_uops == 1

    def test_pointer_stats_count_the_injectors_classifications(self, watchdog):
        # Figure 5's counts come from the one identifier the injector
        # classifies with.
        pointer = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                              pointer_hint=PointerHint.POINTER)
        plain = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                            pointer_hint=PointerHint.NOT_POINTER)
        for inst in (pointer, plain, plain):
            watchdog.expand(inst)
        stats = watchdog.pointer_id_stats
        assert (stats.memory_ops, stats.pointer_ops) == (3, 1)
