"""Tests for workload profiles, the synthetic generator, Juliet suite and attacks."""

import dataclasses
import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.isa.instructions import Opcode, PointerHint
from repro.memory.address_space import AddressSpaceLayout
from repro.program.machine import Machine
from repro.workloads.attacks import ATTACKER_VALUE, all_attack_scenarios, scenario_by_name
from repro.workloads.juliet import JULIET_CASE_COUNT, JulietSuite
from repro.workloads.profiles import (
    LONG_PROFILES,
    ONE_B_PROFILES,
    PAPER_PROFILES,
    SPEC_PROFILES,
    benchmark_names,
    profile_by_name,
)
from repro.workloads.synthetic import SyntheticWorkload

from tests.helpers import snapshot_lines


class TestProfiles:
    def test_twenty_benchmarks(self):
        assert len(SPEC_PROFILES) == 20
        assert len(set(benchmark_names())) == 20

    def test_lookup_by_name(self):
        assert profile_by_name("gcc").name == "gcc"
        with pytest.raises(ConfigurationError):
            profile_by_name("unknown")

    def test_pointer_fraction_never_exceeds_word_fraction(self):
        for profile in SPEC_PROFILES:
            assert profile.pointer_fraction <= profile.word_integer_fraction

    def test_average_fractions_match_figure5_targets(self):
        """Profiles are calibrated so conservative ≈31% and ISA ≈18% (Fig 5)."""
        word = sum(p.word_integer_fraction for p in SPEC_PROFILES) / 20
        pointer = sum(p.pointer_fraction for p in SPEC_PROFILES) / 20
        assert 0.26 <= word <= 0.36
        assert 0.14 <= pointer <= 0.22

    def test_pointer_dense_benchmarks_are_the_integer_codes(self):
        assert profile_by_name("mcf").pointer_fraction > profile_by_name("lbm").pointer_fraction
        assert profile_by_name("gcc").pointer_fraction > profile_by_name("milc").pointer_fraction

    def test_every_field_of_every_profile_is_pinned(self):
        """sha256 over each field of all 32 profiles in tier order, as the
        twelve long-horizon rows read when they were typed out in full."""
        profiles = SPEC_PROFILES + LONG_PROFILES + PAPER_PROFILES \
            + ONE_B_PROFILES
        assert len(profiles) == 32
        rows = "\n".join(repr(dataclasses.astuple(p)) for p in profiles)
        assert hashlib.sha256(rows.encode()).hexdigest()[:16] == \
            "4efde67c3c4c5d13"

    @pytest.mark.parametrize("suffix, tier", [
        ("long", LONG_PROFILES), ("paper", PAPER_PROFILES),
        ("1b", ONE_B_PROFILES)], ids=("long", "paper", "1b"))
    def test_a_tier_row_changes_only_the_working_set_and_locality(
            self, suffix, tier):
        for profile in tier:
            base, _, tag = profile.name.rpartition("-")
            assert tag == suffix
            assert dataclasses.replace(
                profile, name=base,
                working_set_objects=profile_by_name(base).working_set_objects,
                temporal_locality=profile_by_name(base).temporal_locality) \
                == profile_by_name(base)


class TestSyntheticWorkload:
    def test_trace_length(self):
        workload = SyntheticWorkload(profile_by_name("gzip"), seed=1)
        assert len(workload.trace(500)) == 500

    def test_deterministic_for_same_seed(self):
        first = SyntheticWorkload(profile_by_name("gcc"), seed=3).trace(300)
        second = SyntheticWorkload(profile_by_name("gcc"), seed=3).trace(300)
        assert [str(d.instruction) for d in first] == [str(d.instruction) for d in second]
        assert [d.address for d in first] == [d.address for d in second]

    def test_different_seeds_differ(self):
        first = SyntheticWorkload(profile_by_name("gcc"), seed=1).trace(300)
        second = SyntheticWorkload(profile_by_name("gcc"), seed=2).trace(300)
        assert [d.address for d in first] != [d.address for d in second]

    def test_memory_ops_have_addresses_and_locks(self):
        workload = SyntheticWorkload(profile_by_name("perl"), seed=5)
        for dop in workload.trace(400):
            if dop.instruction.is_memory:
                assert dop.address is not None
                assert dop.lock_address is not None

    def test_memory_mix_tracks_profile(self):
        profile = profile_by_name("mcf")
        workload = SyntheticWorkload(profile, seed=9)
        trace = workload.trace(4000)
        memory_ops = [d for d in trace if d.instruction.is_memory]
        fraction = len(memory_ops) / len(trace)
        assert abs(fraction - profile.memory_fraction) < 0.08
        pointer_ops = [d for d in memory_ops
                       if d.instruction.pointer_hint is PointerHint.POINTER]
        assert abs(len(pointer_ops) / len(memory_ops) - profile.pointer_fraction) < 0.1

    def test_addresses_fall_in_valid_segments(self):
        workload = SyntheticWorkload(profile_by_name("twolf"), seed=2)
        layout = AddressSpaceLayout()
        for dop in workload.trace(500):
            if dop.address is not None:
                assert layout.heap.contains(dop.address) or \
                    layout.globals_seg.contains(dop.address)

    def test_working_set_introspection(self):
        workload = SyntheticWorkload(profile_by_name("gzip"), seed=1)
        snapshot = workload.snapshot_working_set()
        lines = list(snapshot_lines(snapshot))
        assert lines and all(line % 64 == 0 for line in lines)
        locks = list(snapshot.locks)
        assert len(locks) == workload.live_objects + 1

    def test_calls_balanced_with_returns(self):
        workload = SyntheticWorkload(profile_by_name("perl"), seed=4)
        trace = workload.trace(3000)
        calls = sum(1 for d in trace if d.instruction.opcode is Opcode.CALL)
        rets = sum(1 for d in trace if d.instruction.opcode is Opcode.RET)
        assert calls >= rets


class TestJulietSuite:
    def test_default_case_count_is_291(self):
        assert JULIET_CASE_COUNT == 291
        assert len(JulietSuite().faulty_cases()) == 291

    def test_case_names_are_unique(self):
        names = [case.name for case in JulietSuite().faulty_cases()]
        assert len(set(names)) == len(names)

    def test_every_pattern_represented(self):
        suite = JulietSuite(case_count=40)
        patterns = {case.pattern for case in suite.faulty_cases()}
        assert patterns == set(suite.patterns())

    def test_both_cwes_present(self):
        cwes = {case.cwe for case in JulietSuite(case_count=60).faulty_cases()}
        assert cwes == {"CWE-416", "CWE-562"}

    def test_faulty_cases_detected(self, uaf_config):
        for case in JulietSuite(case_count=20).faulty_cases():
            result = Machine(uaf_config).run(case.program)
            assert result.detected, case.name
            assert result.violation_kind == case.expected_kind, case.name

    def test_benign_twins_run_clean(self, uaf_config):
        for case in JulietSuite(case_count=20).benign_cases():
            result = Machine(uaf_config).run(case.program)
            assert not result.detected, case.name

    def test_faulty_cases_missed_without_watchdog(self, disabled_config):
        missed = 0
        for case in JulietSuite(case_count=10).faulty_cases():
            if not Machine(disabled_config).run(case.program).detected:
                missed += 1
        assert missed == 10


class TestAttackScenarios:
    def test_all_scenarios_listed(self):
        names = {s.name for s in all_attack_scenarios()}
        assert names == {"heap-uaf-hijack", "stack-uaf-hijack", "double-free",
                         "heap-overflow"}
        assert scenario_by_name("double-free").expected_kind == "double-free"
        with pytest.raises(KeyError):
            scenario_by_name("nope")

    def test_heap_uaf_attack_succeeds_without_watchdog(self, disabled_config):
        scenario = scenario_by_name("heap-uaf-hijack")
        result = Machine(disabled_config).run(scenario.program())
        assert not result.detected
        from repro.isa.registers import parse_reg
        assert result.registers.read(parse_reg(scenario.observed_register)) == ATTACKER_VALUE

    def test_uaf_attacks_detected_by_watchdog(self, uaf_config):
        for scenario in all_attack_scenarios():
            if scenario.requires_bounds:
                continue
            result = Machine(uaf_config).run(scenario.program())
            assert result.detected, scenario.name
            assert result.violation_kind == scenario.expected_kind

    def test_overflow_needs_bounds_extension(self, uaf_config, bounds_config):
        scenario = scenario_by_name("heap-overflow")
        assert not Machine(uaf_config).run(scenario.program()).detected
        result = Machine(bounds_config).run(scenario.program())
        assert result.detected and result.violation_kind == "out-of-bounds"
