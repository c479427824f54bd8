"""Tests for statistics helpers, sampling, results and trace compilation."""

import pytest

from repro.core.config import WatchdogConfig
from repro.errors import ConfigurationError, SimulationError
from repro.isa.instructions import Instruction, Opcode, PointerHint
from repro.isa.microops import UopKind
from repro.isa.registers import int_reg
from repro.memory.hierarchy import PORT_CODES, SPEC_WRITE, PortKind
from repro.pipeline.core import FLAG_KIND_MASK, FLAG_MISPREDICT
from repro.sim.compiled import StreamCompiler, tokenize
from repro.sim.results import ExperimentResult
from repro.sim.sampling import SamplingConfig, SamplingSchedule
from repro.sim.stats import (
    arithmetic_mean,
    geometric_mean,
    geometric_mean_overhead,
    percent_overhead,
)
from repro.sim.trace import DynamicOp

#: µop kinds by their packed code (codes follow declaration order).
KINDS = list(UopKind)


class TestStats:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0

    def test_geometric_mean_rejects_non_positive(self):
        with pytest.raises(SimulationError):
            geometric_mean([1.0, 0.0])

    def test_geometric_mean_overhead_handles_zero_and_negative(self):
        assert geometric_mean_overhead([0.0, 0.0]) == pytest.approx(0.0)
        assert geometric_mean_overhead([0.21, -0.01]) == pytest.approx(0.0945, abs=1e-3)

    def test_percent_overhead(self):
        assert percent_overhead(100, 115) == pytest.approx(0.15)
        with pytest.raises(SimulationError):
            percent_overhead(0, 10)

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert arithmetic_mean([]) == 0.0


class TestSampling:
    def test_paper_schedule_measures_two_percent(self):
        config = SamplingConfig.paper()
        assert config.sampled_fraction == pytest.approx(0.02)

    def test_phase_classification(self):
        schedule = SamplingSchedule(SamplingConfig(fast_forward=10, warmup=5, sample=5))
        assert schedule.phase_of(0) == SamplingSchedule.SKIP
        assert schedule.phase_of(12) == SamplingSchedule.WARMUP
        assert schedule.phase_of(17) == SamplingSchedule.MEASURE
        assert schedule.phase_of(20) == SamplingSchedule.SKIP   # next period

    def test_measured_count(self):
        schedule = SamplingSchedule(SamplingConfig(fast_forward=10, warmup=5, sample=5))
        assert schedule.measured_count(40) == 10

    def test_windows_cover_range(self):
        schedule = SamplingSchedule(SamplingConfig(fast_forward=4, warmup=2, sample=2))
        windows = schedule.windows(16)
        assert windows[0] == (0, 4, SamplingSchedule.SKIP)
        assert windows[-1][1] == 16

    def test_unsampled_config(self):
        config = SamplingConfig.unsampled(100)
        assert config.sampled_fraction == 1.0
        assert config.degenerate

    def test_quick_schedule(self):
        config = SamplingConfig.quick()
        assert config.sampled_fraction == pytest.approx(0.10)
        assert not config.degenerate

    # -- windows()/measured_count() edge cases ------------------------------------
    def test_windows_empty_trace(self):
        schedule = SamplingSchedule(SamplingConfig(fast_forward=4, warmup=2, sample=2))
        assert schedule.windows(0) == []
        assert schedule.measured_count(0) == 0

    def test_trace_shorter_than_fast_forward_measures_nothing(self):
        schedule = SamplingSchedule(SamplingConfig(fast_forward=100, warmup=10,
                                                   sample=10))
        assert schedule.windows(60) == [(0, 60, SamplingSchedule.SKIP)]
        assert schedule.measured_count(60) == 0

    def test_trace_ending_inside_warmup(self):
        schedule = SamplingSchedule(SamplingConfig(fast_forward=4, warmup=4, sample=2))
        assert schedule.windows(6) == [(0, 4, SamplingSchedule.SKIP),
                                       (4, 6, SamplingSchedule.WARMUP)]
        assert schedule.measured_count(6) == 0

    def test_boundary_aligned_periods(self):
        config = SamplingConfig(fast_forward=4, warmup=2, sample=2)
        schedule = SamplingSchedule(config)
        windows = schedule.windows(3 * config.period)
        assert len(windows) == 9
        assert windows[-1] == (22, 24, SamplingSchedule.MEASURE)
        # Windows tile [0, total) exactly.
        assert windows[0][0] == 0
        assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
        assert schedule.measured_count(3 * config.period) == 3 * config.sample

    def test_partial_final_measure_window(self):
        schedule = SamplingSchedule(SamplingConfig(fast_forward=4, warmup=2, sample=4))
        # Second period's measure window is cut at total=17: [16, 17).
        assert schedule.windows(17)[-1] == (16, 17, SamplingSchedule.MEASURE)
        assert schedule.measured_count(17) == 5

    def test_no_fast_forward_merges_warm_and_measure_per_period(self):
        schedule = SamplingSchedule(SamplingConfig(fast_forward=0, warmup=2, sample=2))
        assert schedule.windows(8) == [
            (0, 2, SamplingSchedule.WARMUP), (2, 4, SamplingSchedule.MEASURE),
            (4, 6, SamplingSchedule.WARMUP), (6, 8, SamplingSchedule.MEASURE)]

    def test_degenerate_schedule_is_one_measure_window(self):
        schedule = SamplingSchedule(SamplingConfig(fast_forward=0, warmup=0, sample=3))
        assert schedule.windows(10) == [(0, 10, SamplingSchedule.MEASURE)]
        assert schedule.measured_count(10) == 10

    def test_samples_horizon_needs_skip_or_warmup_and_a_measured_window(self):
        config = SamplingConfig(fast_forward=4, warmup=4, sample=2)
        assert config.samples_horizon(9)
        assert not config.samples_horizon(8)       # ends inside the warm-up
        assert not config.samples_horizon(0)
        # Measures everything at any horizon: normalizes to unsampled.
        assert not SamplingConfig.unsampled(10).samples_horizon(10)
        assert SamplingConfig(fast_forward=0, warmup=1, sample=1) \
            .samples_horizon(2)

    def test_windows_match_per_index_classification(self):
        schedule = SamplingSchedule(SamplingConfig(fast_forward=3, warmup=2, sample=4))
        for total in (0, 1, 3, 5, 8, 9, 13, 27):
            windows = schedule.windows(total)
            covered = [phase for start, end, phase in windows
                       for _ in range(start, end)]
            assert covered == [schedule.phase_of(i) for i in range(total)]
            assert schedule.measured_count(total) == \
                sum(1 for _ in schedule.measured_indices(total))

    # -- field-specific validation (spec-construction-time errors) -----------------
    def test_negative_fast_forward_names_the_field(self):
        with pytest.raises(ConfigurationError, match="fast_forward must be >= 0"):
            SamplingConfig(fast_forward=-1)

    def test_negative_warmup_names_the_field(self):
        with pytest.raises(ConfigurationError, match="warmup must be >= 0"):
            SamplingConfig(warmup=-5)

    def test_zero_sample_names_the_field(self):
        with pytest.raises(ConfigurationError, match="sample must be > 0"):
            SamplingConfig(sample=0)

    def test_non_integer_length_rejected(self):
        with pytest.raises(ConfigurationError, match="warmup must be an integer"):
            SamplingConfig(warmup=0.5)


class TestResults:
    def test_experiment_result_table(self):
        result = ExperimentResult("demo")
        result.add_value("a", "gcc", 1.0)
        result.add_value("b", "gcc", 2.0)
        result.add_value("a", "lbm", 3.0)
        result.add_summary("mean", 2.0)
        table = result.format_table()
        assert "gcc" in table and "lbm" in table and "mean" in table
        assert result.benchmarks() == ["gcc", "lbm"]


class TestTraceExpander:
    """What one dynamic op compiles to: µop kinds, accesses and pages."""

    def _compile(self, config, dop):
        """The compiled stream of ``dop``, its µop kinds in order, and its
        memory accesses as ``(kind, address, port code, is_write)``."""
        stream = StreamCompiler(config).compile_measured(tokenize([dop]))
        kinds = [KINDS[word & FLAG_KIND_MASK] for word in stream.words]
        accesses = [(kinds[pos], address, spec & 3, bool(spec & SPEC_WRITE))
                    for pos, address, spec in zip(
                        stream.mem_pos, stream.mem_addr, stream.mem_spec)]
        return stream, kinds, accesses

    def test_load_gets_addresses_for_check_and_shadow(self):
        config = WatchdogConfig.isa_assisted_uaf()
        inst = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                           pointer_hint=PointerHint.POINTER)
        _, _, accesses = self._compile(
            config, DynamicOp(inst, address=0x2000_0000,
                              lock_address=0x6000_0000))
        by_kind = {kind: (address, port)
                   for kind, address, port, _ in accesses}
        assert by_kind[UopKind.CHECK] == (0x6000_0000,
                                          PORT_CODES[PortKind.LOCK])
        assert by_kind[UopKind.LOAD][0] == 0x2000_0000
        assert by_kind[UopKind.SHADOW_LOAD][1] == PORT_CODES[PortKind.SHADOW]

    def test_store_marks_writes(self):
        config = WatchdogConfig.isa_assisted_uaf()
        inst = Instruction(Opcode.STORE, srcs=(int_reg(2), int_reg(3)),
                           pointer_hint=PointerHint.POINTER)
        _, _, accesses = self._compile(
            config, DynamicOp(inst, address=0x2000_0000,
                              lock_address=0x6000_0000))
        writes = {kind for kind, _, _, is_write in accesses if is_write}
        assert UopKind.STORE in writes and UopKind.SHADOW_STORE in writes

    def test_branch_misprediction_flag_propagates(self):
        config = WatchdogConfig.disabled()
        inst = Instruction(Opcode.BRANCH, srcs=(int_reg(1),))
        stream, kinds, _ = self._compile(config,
                                         DynamicOp(inst, mispredicted=True))
        assert kinds[0] is UopKind.BRANCH
        assert stream.words[0] & FLAG_MISPREDICT

    def test_bounds_check_uop_needs_no_memory(self):
        config = WatchdogConfig.full_safety_two_uops()
        inst = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                           pointer_hint=PointerHint.NOT_POINTER)
        _, kinds, accesses = self._compile(
            config, DynamicOp(inst, address=0x2000_0000,
                              lock_address=0x6000_0000))
        assert UopKind.BOUNDS_CHECK in kinds
        assert UopKind.BOUNDS_CHECK not in {kind for kind, *_ in accesses}

    def test_copy_elimination_ablation_adds_uops(self):
        base_config = WatchdogConfig.isa_assisted_uaf()
        ablation = base_config.with_(copy_elimination=False)
        inst = Instruction(Opcode.ADD_RI, dest=int_reg(1), srcs=(int_reg(2),), imm=8)
        with_elim, _, _ = self._compile(base_config, DynamicOp(inst))
        without, _, _ = self._compile(ablation, DynamicOp(inst))
        assert len(without) == len(with_elim) + 1

    def test_pages_accounting_hooked(self):
        config = WatchdogConfig.isa_assisted_uaf()
        inst = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                           pointer_hint=PointerHint.POINTER)
        stream, _, _ = self._compile(
            config, DynamicOp(inst, address=0x2000_0000,
                              lock_address=0x6000_0000))
        assert stream.pages.data_word_count > 0
        assert stream.pages.shadow_word_count > 0
