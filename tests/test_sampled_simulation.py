"""Tests for §9.1 sampled simulation on the compiled pipeline.

Covers the sampled-bundle segmentation, the refusal of schedules that
sample nothing, golden bit-equality under sampling with the retired
reference model's pinned digests, the engine/cache round-trip (including
the sampling cache-collision fix), the bundle-memo footprint accounting and
sharing, the per-sample replay's index checks, and the long-horizon
profiles that only sampling makes tractable.
"""

import dataclasses

import pytest

from repro.core.config import WatchdogConfig
from repro.core.uop_injection import STAT_FIELDS
from repro.errors import ConfigurationError
from repro.sim.cache import ResultCache, request_fingerprint
from repro.sim.engine import SweepEngine, _BUNDLES, _bundle_for, BenchmarkJob
from repro.sim.results import CellResult
from repro.sim.sampling import SamplingConfig, SamplingSchedule
from repro.sim.simulator import Simulator
from repro.sim.spec import ExperimentSettings, ExperimentSpec, RunRequest
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import (
    LONG_HORIZON_INSTRUCTIONS,
    long_profile_names,
    profile_by_name,
)

from tests.helpers import cell_digest, reference_digests, run_trace

ISA = WatchdogConfig.isa_assisted_uaf()

#: A schedule that genuinely samples the suite's short synthetic traces.
SMALL = SamplingConfig(fast_forward=2000, warmup=500, sample=1500)


def small_spec(benchmarks=("gzip", "mcf"), instructions=12_000):
    settings = ExperimentSettings(benchmarks=benchmarks,
                                  instructions=instructions, sampling=SMALL)
    return ExperimentSpec.build("sampled", {"wd": ISA}, settings=settings)


class TestSampledBundle:
    def test_segmentation_matches_schedule_windows(self):
        instructions = 12_000
        bundle = TraceBundle.generate("gzip", seed=7, instructions=instructions,
                                      sampling=SMALL)
        schedule = SamplingSchedule(SMALL)
        measure_windows = [w for w in schedule.windows(instructions)
                           if w[2] == SamplingSchedule.MEASURE]
        assert len(bundle.samples) == len(measure_windows)
        assert [len(s.measured) for s in bundle.samples] == \
            [end - start for start, end, _ in measure_windows]
        assert all(len(s.warmup) == SMALL.warmup for s in bundle.samples)
        assert bundle.measured_instructions == \
            schedule.measured_count(instructions)

    def test_windows_are_slices_of_the_continuous_stream(self):
        # One generator spans every window: the warm-up/measured segments
        # must be literal slices of the continuous unsampled stream, even
        # when a window boundary lands inside a multi-op event (allocation
        # or runtime-call sequence) — schedule lengths here are chosen to be
        # misaligned with any event structure.
        from repro.workloads.profiles import profile_by_name
        from repro.workloads.synthetic import SyntheticWorkload

        sampling = SamplingConfig(fast_forward=313, warmup=328, sample=356)
        schedule = SamplingSchedule(sampling)
        for name, seed in (("mcf", 1), ("perl", 7), ("gcc", 2)):
            bundle = TraceBundle.generate(name, seed=seed, instructions=4_000,
                                          sampling=sampling)
            continuous = SyntheticWorkload(profile_by_name(name),
                                           seed=seed).trace(4_000)
            index = 0
            for start, end, phase in schedule.windows(4_000):
                if phase == SamplingSchedule.WARMUP:
                    assert bundle.samples[index].warmup == \
                        tuple(continuous[start:end])
                elif phase == SamplingSchedule.MEASURE:
                    assert bundle.samples[index].measured == \
                        tuple(continuous[start:end])
                    index += 1

    def test_generation_is_deterministic(self):
        first = TraceBundle.generate("mcf", seed=3, instructions=9_000,
                                     sampling=SMALL)
        second = TraceBundle.generate("mcf", seed=3, instructions=9_000,
                                      sampling=SMALL)
        assert first == second

    @pytest.mark.parametrize("sampling", [
        SamplingConfig(fast_forward=0, warmup=0, sample=3_000),
        # The quick schedule's period exceeds a 3k trace: every window
        # would be fast-forward, so it measures nothing.
        SamplingConfig.quick()])
    def test_schedules_that_sample_nothing_are_refused(self, sampling):
        # Running such a cell unsampled is the engine's decision (see
        # test_streaming.py), never a silent fallback inside the bundle.
        with pytest.raises(ConfigurationError, match="genuinely samples"):
            TraceBundle.generate("gzip", seed=7, instructions=3_000,
                                 sampling=sampling)

    def test_unsampled_bundle_is_one_window(self):
        bundle = TraceBundle.generate("gzip", seed=7, instructions=3_000)
        (window,) = bundle.samples
        assert len(window.measured) == bundle.measured_instructions == 3_000
        assert len(window.warmup) == 1_000  # default_warmup_instructions


def ipc(timing):
    """Committed µops per cycle."""
    return timing.total_uops / timing.cycles


class TestSampledExecution:
    def test_genuine_sampling_approximates_unsampled_ipc(self):
        # With real skip windows the measured windows are a subset of the
        # trace; the working-set warm-up keeps the per-sample steady state
        # close to the full run's.
        simulator = Simulator()
        sampling = SamplingConfig(fast_forward=6_000, warmup=3_000,
                                  sample=3_000)
        for benchmark in ("gzip", "mcf"):
            plain_bundle = TraceBundle.generate(benchmark, seed=7,
                                                instructions=48_000)
            sampled_bundle = TraceBundle.generate(benchmark, seed=7,
                                                  instructions=48_000,
                                                  sampling=sampling)
            for config in (WatchdogConfig.disabled(), ISA):
                plain = simulator.run_bundle(plain_bundle, config)
                sampled = simulator.run_bundle(sampled_bundle, config)
                assert ipc(sampled.timing) == \
                    pytest.approx(ipc(plain.timing), rel=0.15)

    def test_sampled_aggregation_sums_sample_stats(self):
        bundle = TraceBundle.generate("mcf", seed=7, instructions=12_000,
                                      sampling=SMALL)
        simulator = Simulator()
        aggregated = simulator.run_bundle(bundle, ISA)
        per_sample = [
            run_trace(simulator, iter(sample.measured), ISA, name="mcf",
                      warmup_trace=sample.warmup or None,
                      working_set=sample.working_set)
            for sample in bundle.samples]
        assert aggregated.timing.cycles == \
            sum(o.timing.cycles for o in per_sample)
        assert aggregated.timing.total_uops == \
            sum(o.timing.total_uops for o in per_sample)
        for name in STAT_FIELDS:
            assert getattr(aggregated.injection, name) == \
                sum(getattr(o.injection, name) for o in per_sample)
        assert aggregated.pointer_stats.memory_ops == \
            sum(o.pointer_stats.memory_ops for o in per_sample)
        # Pages union (samples may touch overlapping lines).
        assert aggregated.pages.data_word_count <= \
            sum(o.pages.data_word_count for o in per_sample)
        assert aggregated.pages.data_word_count >= \
            max(o.pages.data_word_count for o in per_sample)


class TestGoldenSampledEquivalence:
    #: Five profiles spanning the pointer-density/locality range × two
    #: configurations, as the acceptance criteria require.
    PROFILES = ("gzip", "mcf", "lbm", "gcc", "twolf")
    CONFIGS = (WatchdogConfig.disabled(), WatchdogConfig.isa_assisted_uaf())

    @pytest.mark.parametrize("profile_name", PROFILES)
    def test_compiled_matches_reference_bit_for_bit(self, profile_name):
        bundle = TraceBundle.generate(profile_name, seed=7, instructions=9_000,
                                      sampling=SMALL)
        assert bundle.samples, "schedule must genuinely sample this trace"
        reference = reference_digests("sampled")
        for config in self.CONFIGS:
            label = Simulator._config_name(config)
            outcome = Simulator().run_bundle(bundle, config)
            assert cell_digest(outcome, label) == \
                reference[f"{profile_name}/{label}"], \
                f"{profile_name}/{label}: diverged from the reference"

    def test_pinned_table_covers_exactly_these_cells(self):
        assert set(reference_digests("sampled")) == {
            f"{profile_name}/{Simulator._config_name(config)}"
            for profile_name in self.PROFILES for config in self.CONFIGS}


def _pinned_cell(configuration, **counters):
    return CellResult(benchmark="mcf-long", configuration=configuration,
                      **counters)


class TestPinnedSampledAggregate:
    """A ten-sample aggregate pinned to literal values.

    Recorded while the list-based aggregator and the streaming accumulator
    were still two separate copies of the §9.1 arithmetic, so it checks the
    one remaining fold against the old arithmetic rather than against
    itself.  Every counter and every (float) port wait compares with ``==``
    on each executor: ``run_bundle``, and ``execute_job`` serial and on a
    two-worker sample pool.
    """

    INSTRUCTIONS = 40_000
    CELLS = {
        "baseline": (
            WatchdogConfig.disabled(),
            _pinned_cell(
                "baseline", cycles=10972, total_uops=15022, injected_uops=0,
                macro_instructions=15000, memory_accesses=4531,
                lock_cache_misses=4, l1d_misses=1106, baseline_uops=15022,
                data_words=2690, data_pages=25),
            {"alu": 1.4752640114521363, "branch": 4.2939976160187925,
             "load": 1.775717091724315, "store": 3.9720253328408623,
             "muldiv": 0.19698872692555558, "fp": 0.0, "lock": 0.0}),
        "isa-assisted": (
            ISA,
            _pinned_cell(
                "isa-assisted", cycles=12865, total_uops=22579,
                injected_uops=7557, macro_instructions=15000,
                memory_accesses=10838, lock_cache_misses=23, l1d_misses=2821,
                baseline_uops=15022, check_uops=4523, pointer_load_uops=1241,
                pointer_store_uops=521, select_uops=1184, frame_uops=88,
                other_uops=8, memory_ops=4523, pointer_ops=1762,
                data_words=2690, shadow_words=2116, data_pages=25,
                shadow_pages=28),
            {"alu": 1.217541863754615, "branch": 2.409876997058084,
             "load": 1.2416020732268593, "store": 4.4121184999356515,
             "muldiv": 0.14275059665632267, "fp": 0.0,
             "lock": 1.1391751138868422}),
    }

    def _job(self):
        return BenchmarkJob(
            benchmark="mcf-long", seed=7, instructions=self.INSTRUCTIONS,
            warmup_instructions=None, sampling=SMALL,
            cells=tuple((label, config)
                        for label, (config, _, _) in self.CELLS.items()))

    def test_run_bundle_matches_pinned_values(self):
        bundle = TraceBundle.generate("mcf-long", seed=7,
                                      instructions=self.INSTRUCTIONS,
                                      sampling=SMALL)
        assert len(bundle.samples) == 10
        for label, (config, cell, port_waits) in self.CELLS.items():
            outcome = Simulator().run_bundle(bundle, config)
            assert CellResult.from_outcome(outcome, label=label) == cell
            assert outcome.timing.port_waits == port_waits

    def test_execute_job_serial_matches_pinned_values(self):
        from repro.sim.engine import execute_job

        assert execute_job(self._job()) == \
            [cell for _, cell, _ in self.CELLS.values()]

    def test_execute_job_sample_pool_matches_pinned_values(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.sim.engine import execute_job

        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = execute_job(self._job(), sample_pool=pool)
        assert pooled == [cell for _, cell, _ in self.CELLS.values()]


class TestEngineRoundTrip:
    def test_sampled_jobs_round_trip_through_pool_and_cache(self, tmp_path):
        spec = small_spec()
        cold = SweepEngine(workers=2, cache=ResultCache(tmp_path))
        try:
            cells = cold.run_spec(spec)
        finally:
            cold.close()
        assert cold.simulated_cells == len(spec)
        assert all(cell.cycles > 0 for cell in cells.values())

        serial = SweepEngine(workers=1)
        assert serial.run_spec(spec) == cells

        warm = SweepEngine(cache=ResultCache(tmp_path))
        assert warm.run_spec(spec) == cells
        assert warm.simulated_cells == 0

    def test_sampling_is_part_of_the_cell_identity(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = SweepEngine(cache=cache)
        plain = RunRequest("gzip", "wd", ISA, instructions=12_000)
        sampled = dataclasses.replace(plain, sampling=SMALL)
        first = engine.run_requests([plain])[plain.key]
        second = engine.run_requests([sampled])[sampled.key]
        assert engine.simulated_cells == 2
        assert first.cycles != second.cycles

        # A fresh engine over the same cache dir: the sampled request must
        # hit its own entry, never the unsampled one.
        warm = SweepEngine(cache=ResultCache(tmp_path))
        assert warm.run_requests([sampled])[sampled.key] == second
        assert warm.simulated_cells == 0


class TestCacheCollisions:
    REQUEST = RunRequest("gzip", "wd", ISA, instructions=1_200)

    def test_fingerprint_separates_sampling_schedules(self):
        plain = request_fingerprint(self.REQUEST)
        sampled = request_fingerprint(
            dataclasses.replace(self.REQUEST, sampling=SMALL))
        other = request_fingerprint(dataclasses.replace(
            self.REQUEST,
            sampling=dataclasses.replace(SMALL, sample=SMALL.sample + 1)))
        assert len({plain, sampled, other}) == 3

    def test_cached_cell_is_what_a_degraded_retry_computes(self, tmp_path):
        from repro.sim.engine import execute_job

        # The key has no term for the native kernel, so a cell cached by a
        # native run is what a pure-Python (degraded) run of the same request
        # reads back: the two must agree bit for bit.
        engine = SweepEngine(cache=ResultCache(tmp_path))
        cached = engine.run_requests([self.REQUEST])[self.REQUEST.key]
        assert engine.simulated_cells == 1
        job = BenchmarkJob(benchmark="gzip", seed=self.REQUEST.seed,
                           instructions=self.REQUEST.instructions,
                           warmup_instructions=None, sampling=None,
                           cells=(("wd", ISA),), native=False)
        assert execute_job(job) == [cached]


class TestBundleMemoFootprint:
    def test_footprint_counts_compiled_caches(self):
        bundle = TraceBundle.generate("gzip", seed=7, instructions=2_000)
        (window,) = bundle.samples
        before = bundle.footprint_ops()
        assert before >= len(window.measured) + len(window.warmup)
        bundle.compiled_streams(ISA)
        assert bundle.footprint_ops() > before

    def test_whole_bundle_streams_rejected_on_sampled_bundle(self):
        bundle = TraceBundle.generate("gzip", seed=7, instructions=12_000,
                                      sampling=SMALL)
        with pytest.raises(ConfigurationError, match="compiled_sample_streams"):
            bundle.compiled_streams(ISA)

    def test_footprint_counts_sample_segments(self):
        bundle = TraceBundle.generate("gzip", seed=7, instructions=12_000,
                                      sampling=SMALL)
        base = sum(len(s.measured) + len(s.warmup) for s in bundle.samples)
        before = bundle.footprint_ops()
        assert before >= base
        bundle.compiled_sample_streams(0, ISA)
        assert bundle.footprint_ops() > before

    def test_memo_evicts_on_footprint_budget(self, monkeypatch):
        import repro.sim.engine as engine_mod

        monkeypatch.setattr(engine_mod, "_BUNDLES_OP_BUDGET", 5_000)
        _BUNDLES.clear()
        job = BenchmarkJob(benchmark="gzip", seed=7, instructions=2_000,
                           warmup_instructions=None, sampling=None,
                           cells=())
        first = _bundle_for(job)
        # Replay compiles streams, growing the pinned footprint well past
        # the (tiny) budget; the next lookup must evict the older bundle.
        Simulator().run_bundle(first, ISA)
        other = dataclasses.replace(job, benchmark="mcf")
        _bundle_for(other)
        assert len(_BUNDLES) == 1  # gzip evicted despite being "only" 2.5k ops
        _BUNDLES.clear()

    def test_sampled_jobs_stream_past_the_memo(self):
        from repro.sim.engine import execute_job

        _BUNDLES.clear()
        job = BenchmarkJob(benchmark="gzip", seed=7, instructions=12_000,
                           warmup_instructions=None, sampling=SMALL,
                           cells=(("wd", ISA),))
        execute_job(job)
        assert not _BUNDLES  # streamed: no sample outlives its replay
        # Jobs whose schedules measure everything or nothing run unsampled,
        # on the very bundle a plain unsampled job of the workload memoizes.
        for sampling in (None,
                         SamplingConfig(fast_forward=0, warmup=0, sample=3_000),
                         SamplingConfig.quick()):
            execute_job(dataclasses.replace(job, instructions=3_000,
                                            sampling=sampling))
        assert list(_BUNDLES) == [("gzip", 7, 3_000, None)]
        _BUNDLES.clear()


class TestSampleReplay:
    def test_sample_index_out_of_range_is_refused(self):
        bundle = TraceBundle.generate("mcf", seed=7, instructions=12_000,
                                      sampling=SMALL)
        count = len(bundle.samples)
        simulator = Simulator()
        simulator.sample_outcome(bundle, count - 1, ISA)
        for index in (-1, count):
            with pytest.raises(IndexError, match=f"{count} samples"):
                simulator.sample_outcome(bundle, index, ISA)
            with pytest.raises(IndexError, match=f"{count} samples"):
                bundle.compiled_sample_streams(index, ISA)
        # One window replayed, one compiled entry: a negative index never
        # aliased the last sample under a cache key of its own.
        assert len(bundle.__dict__["_cc_streams"]) == 1

    def test_sample_can_be_replayed_again(self):
        bundle = TraceBundle.generate("gzip", seed=7, instructions=12_000,
                                      sampling=SMALL)
        simulator = Simulator()
        first = simulator.sample_outcome(bundle, 0, ISA)
        for index in range(len(bundle.samples)):
            simulator.sample_outcome(bundle, index, ISA)
        again = simulator.sample_outcome(bundle, 0, ISA)
        assert again.timing == first.timing
        assert again.injection == first.injection


class TestSpecValidation:
    def test_settings_reject_non_sampling_config(self):
        with pytest.raises(ConfigurationError, match="SamplingConfig"):
            ExperimentSettings(benchmarks=("gzip",), sampling="quick")

    def test_request_rejects_non_sampling_config(self):
        with pytest.raises(ConfigurationError, match="SamplingConfig"):
            RunRequest("gzip", "wd", ISA, sampling=(480, 10, 10))

    def test_request_rejects_sampling_with_explicit_warmup(self):
        with pytest.raises(ConfigurationError, match="warmup_instructions"):
            RunRequest("gzip", "wd", ISA, warmup_instructions=500,
                       sampling=SMALL)

    def test_bundle_rejects_sampling_with_explicit_warmup(self):
        with pytest.raises(ConfigurationError, match="warmup_instructions"):
            TraceBundle.generate("gzip", seed=7, instructions=3_000,
                                 warmup_instructions=500, sampling=SMALL)

    def test_spec_requests_carry_sampling(self):
        requests = small_spec().requests()
        assert all(r.sampling == SMALL for r in requests)


class TestLongProfiles:
    def test_long_profiles_are_registered_but_not_in_figure_grids(self):
        from repro.workloads.profiles import benchmark_names

        names = long_profile_names()
        assert "mcf-long" in names
        for name in names:
            assert profile_by_name(name).name == name
            assert name not in benchmark_names()

    def test_million_instruction_cell_under_quick_sampling(self):
        # Acceptance: a 1M-instruction long profile completes a fig7-style
        # cell under the quick schedule with ≥5× fewer timed µops than an
        # unsampled run would replay (the quick schedule times 10% of the
        # horizon, so the reduction is 10×).
        instructions = LONG_HORIZON_INSTRUCTIONS
        sampling = SamplingConfig.quick()
        bundle = TraceBundle.generate("mcf-long", seed=7,
                                      instructions=instructions,
                                      sampling=sampling)
        schedule = SamplingSchedule(sampling)
        assert bundle.measured_instructions == \
            schedule.measured_count(instructions)
        assert bundle.measured_instructions * 5 <= instructions

        simulator = Simulator()
        baseline = simulator.run_bundle(bundle, WatchdogConfig.disabled())
        protected = simulator.run_bundle(bundle, ISA)
        # Timed µops scale with measured instructions, not the horizon.
        assert baseline.timing.macro_instructions == \
            bundle.measured_instructions
        assert baseline.timing.macro_instructions * 5 <= instructions
        assert protected.timing.total_uops > baseline.timing.total_uops
        assert protected.timing.cycles > baseline.timing.cycles > 0
