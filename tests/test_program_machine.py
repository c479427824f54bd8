"""Tests for the functional machine (detection ground truth)."""

import pytest

from tests.helpers import build_benign_program, build_uaf_program
from repro.core.config import WatchdogConfig
from repro.errors import SimulationError, UseAfterFreeError
from repro.isa.registers import int_reg, parse_reg
from repro.program import machine as machine_module
from repro.program.builder import ProgramBuilder
from repro.program.machine import Machine


class TestBasicExecution:
    def test_benign_program_runs_clean(self, uaf_config):
        result = Machine(uaf_config).run(build_benign_program())
        assert not result.detected
        assert result.registers.read(parse_reg("r9")) == 42

    def test_arithmetic_semantics(self, uaf_config):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.mov_imm("r1", 10).mov_imm("r2", 3)
            main.add("r3", "r1", "r2")
            main.mul("r4", "r1", "r2")
            main.sub_imm("r5", "r1", 4)
            main.xor("r6", "r1", "r1")
        result = Machine(uaf_config).run(builder.build())
        regs = result.registers
        assert regs.read(parse_reg("r3")) == 13
        assert regs.read(parse_reg("r4")) == 30
        assert regs.read(parse_reg("r5")) == 6
        assert regs.read(parse_reg("r6")) == 0

    def test_store_load_roundtrip_through_memory(self, uaf_config):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.mov_imm("r8", 0xABCD)
            main.store("r1", "r8", 16)
            main.load("r9", "r1", 16)
        result = Machine(uaf_config).run(builder.build())
        assert result.registers.read(parse_reg("r9")) == 0xABCD

    def test_subword_store_load(self, uaf_config):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.mov_imm("r8", 0x1FF)
            main.store("r1", "r8", 0, size=1)
            main.load("r9", "r1", 0, size=1)
        result = Machine(uaf_config).run(builder.build())
        assert result.registers.read(parse_reg("r9")) == 0xFF

    def test_function_call_and_return(self, uaf_config):
        builder = ProgramBuilder()
        with builder.function("callee") as callee:
            callee.mov_imm("r9", 123)
            callee.ret()
        with builder.function("main") as main:
            main.call("callee")
            main.mov_imm("r10", 1)
        result = Machine(uaf_config).run(builder.build())
        assert result.registers.read(parse_reg("r9")) == 123
        assert result.registers.read(parse_reg("r10")) == 1

    def test_execution_counters(self, uaf_config):
        result = Machine(uaf_config).run(build_benign_program())
        assert result.instructions_executed >= 5
        assert result.uops_executed > result.instructions_executed

    def test_runaway_guard_stops_at_the_operation_limit(self, uaf_config,
                                                        monkeypatch):
        # The guard is fixed at DEFAULT_OPERATION_LIMIT; lowering the
        # constant makes the five-instruction benign program a runaway.
        monkeypatch.setattr(machine_module, "DEFAULT_OPERATION_LIMIT", 3)
        with pytest.raises(SimulationError, match="operation limit"):
            Machine(uaf_config).run(build_benign_program())


class TestDetection:
    def test_heap_uaf_detected(self, uaf_config):
        result = Machine(uaf_config).run(build_uaf_program())
        assert result.detected
        assert result.violation_kind == "use-after-free"

    def test_uaf_detected_under_conservative_identification(self, conservative_config):
        result = Machine(conservative_config).run(build_uaf_program())
        assert result.detected

    def test_uaf_detected_with_bounds_configs(self, bounds_config):
        result = Machine(bounds_config).run(build_uaf_program())
        assert result.detected

    def test_uaf_not_detected_when_disabled(self, disabled_config):
        result = Machine(disabled_config).run(build_uaf_program())
        assert not result.detected

    def test_violation_halts_the_run(self, uaf_config):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.free("r1")
            main.load("r9", "r1", 0)
            main.mov_imm("r10", 1)       # never reached
        result = Machine(uaf_config).run(builder.build())
        assert isinstance(result.violation, UseAfterFreeError)
        assert result.registers.read(parse_reg("r10")) == 0

    def test_pointer_spilled_to_memory_still_checked(self, uaf_config):
        """The shadow-space path (§3.3): metadata survives a spill/reload."""
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 64)
            main.malloc("r2", 64)
            main.store_ptr("r2", "r1", 0)
            main.free("r1")
            main.load_ptr("r3", "r2", 0)
            main.load("r9", "r3", 0)
        result = Machine(uaf_config).run(builder.build())
        assert result.detected

    def test_stack_uaf_detected_after_return(self, uaf_config):
        builder = ProgramBuilder()
        with builder.function("foo") as foo:
            foo.stack_alloc("r1", 16)
            foo.ret()
        with builder.function("main") as main:
            main.call("foo")
            main.load("r9", "r1", 0)
        result = Machine(uaf_config).run(builder.build())
        assert result.detected

    def test_buffer_overflow_detected_only_with_bounds(self, uaf_config, bounds_config):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.malloc("r1", 32)
            main.mov_imm("r8", 7)
            main.store("r1", "r8", 40)     # 8 bytes past the end
        program = builder.build()
        assert not Machine(uaf_config).run(program).detected
        result = Machine(bounds_config).run(program).violation_kind
        assert result == "out-of-bounds"

    def test_global_pointers_always_pass(self, uaf_config):
        builder = ProgramBuilder()
        with builder.function("main") as main:
            main.global_addr("r1", 0)
            main.mov_imm("r8", 9)
            main.store("r1", "r8", 0)
            main.load("r9", "r1", 0)
        result = Machine(uaf_config).run(builder.build())
        assert not result.detected

    def test_violation_records_faulting_address(self, uaf_config):
        result = Machine(uaf_config).run(build_uaf_program())
        assert result.violation is not None
        assert result.violation.address is not None


class TestTraceRecording:
    def test_trace_recorded_when_requested(self, uaf_config):
        machine = Machine(uaf_config, record_trace=True)
        result = machine.run(build_benign_program())
        assert result.trace
        memory_ops = [d for d in result.trace if d.instruction.is_memory]
        assert all(d.address is not None for d in memory_ops)
        assert any(d.lock_address is not None for d in memory_ops)

    def test_trace_not_recorded_by_default(self, uaf_config):
        result = Machine(uaf_config).run(build_benign_program())
        assert result.trace == []
