"""End-to-end integration tests spanning multiple subsystems."""

import pytest

from repro.core.config import WatchdogConfig
from repro.program.builder import ProgramBuilder
from repro.program.compiler import annotate_pointer_hints
from repro.program.machine import Machine
from repro.sim.simulator import Simulator
from repro.workloads.juliet import JulietSuite


def linked_list_program(nodes=6, corrupt=False):
    """Build, walk and free a linked list; optionally walk it after freeing
    one interior node (a realistic use-after-free)."""
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", 32)                      # head
        main.mov("r4", "r1")                       # cursor for construction
        for _ in range(nodes - 1):
            main.malloc("r5", 32)                  # new node
            main.store("r4", "r5", 0)              # cursor->next = new
            main.mov_imm("r8", 7)
            main.store("r4", "r8", 8)              # cursor->value = 7
            main.mov("r4", "r5")
        main.mov_imm("r8", 7)
        main.store("r4", "r8", 8)
        main.mov_imm("r9", 0)
        main.store("r4", "r9", 0)                  # tail->next = NULL

        if corrupt:
            # Free the second node, then walk the list from the head.
            main.load("r6", "r1", 0)               # second = head->next
            main.free("r6")

        # Walk the list (unrolled) summing values.
        main.mov("r4", "r1")
        main.mov_imm("r10", 0)
        for _ in range(nodes):
            main.load("r11", "r4", 8)              # value
            main.add("r10", "r10", "r11")
            main.load("r4", "r4", 0)               # next
    return builder.build()


class TestLinkedListScenario:
    def test_clean_walk_passes_with_watchdog(self):
        program = linked_list_program()
        annotate_pointer_hints(program)
        result = Machine(WatchdogConfig.isa_assisted_uaf()).run(program)
        assert not result.detected

    def test_corrupted_walk_detected_with_watchdog(self):
        program = linked_list_program(corrupt=True)
        annotate_pointer_hints(program)
        result = Machine(WatchdogConfig.isa_assisted_uaf()).run(program)
        assert result.detected
        assert result.violation_kind == "use-after-free"

    def test_corrupted_walk_missed_without_watchdog(self):
        program = linked_list_program(corrupt=True)
        result = Machine(WatchdogConfig.disabled()).run(program)
        assert not result.detected

    def test_annotated_program_has_fewer_pointer_ops_but_same_detection(self):
        annotated = linked_list_program(corrupt=True)
        annotate_pointer_hints(annotated)
        plain = linked_list_program(corrupt=True)

        machine_annotated = Machine(WatchdogConfig.isa_assisted_uaf())
        machine_plain = Machine(WatchdogConfig.conservative_uaf())
        assert machine_annotated.run(annotated).detected
        assert machine_plain.run(plain).detected
        assert machine_annotated.watchdog.pointer_id_stats.pointer_ops <= \
            machine_plain.watchdog.pointer_id_stats.pointer_ops


class TestFunctionalTraceFeedsTimingModel:
    def test_program_trace_can_be_timed(self):
        program = linked_list_program()
        machine = Machine(WatchdogConfig.isa_assisted_uaf(), record_trace=True)
        result = machine.run(program)
        timing = Simulator().run_trace(
            result.trace, WatchdogConfig.isa_assisted_uaf()).timing
        assert timing.cycles > 0
        assert timing.injected_uops > 0

    def test_simulator_program_timing_overhead_positive(self):
        simulator = Simulator()
        program = linked_list_program(nodes=10)
        timings = []
        for config in (WatchdogConfig.disabled(),
                       WatchdogConfig.conservative_uaf()):
            trace = Machine(config, record_trace=True).run(program).trace
            timings.append(simulator.run_trace(trace, config).timing)
        base, wd = timings
        assert wd.total_uops > base.total_uops


class TestJulietAcrossConfigurations:
    @pytest.mark.parametrize("config_factory", [
        WatchdogConfig.isa_assisted_uaf,
        WatchdogConfig.conservative_uaf,
        WatchdogConfig.full_safety_fused,
        WatchdogConfig.full_safety_two_uops,
    ])
    def test_every_configuration_detects_uaf_patterns(self, config_factory):
        config = config_factory()
        for case in JulietSuite(case_count=10).faulty_cases():
            result = Machine(config).run(case.program)
            assert result.detected, f"{case.name} under {config}"

    def test_detection_is_independent_of_lock_cache(self):
        """The lock location cache is a performance structure only (§4.2)."""
        for case in JulietSuite(case_count=5).faulty_cases():
            assert Machine(WatchdogConfig.no_lock_cache()).run(case.program).detected
