"""Tests for streaming sampled simulation (one sample in memory).

Covers the :class:`~repro.workloads.streaming.SampleStream` walk against the
retained bundle (segment-for-segment bit-equality), the replay-on-demand
property (a random single sample regenerated from the state core alone
equals the retained bundle's, native fast-forward kernel on and off),
streamed runs through the sweep engine (serial and pooled, native kernels
on and off) against the retained replay :meth:`Simulator.run_bundle`, the
engine's decision to run schedules that sample nothing unsampled, the
incremental :class:`OutcomeAccumulator`,
the state core's retired-slot compaction (bit-invisible on every span path),
the audited bundle footprint accounting, and the billion-instruction
profile/bench plumbing.
"""

import random
import zlib

import pytest

from repro.core.config import WatchdogConfig
from repro.errors import ConfigurationError
from repro.sim.results import CellResult
from repro.sim.sampling import SamplingConfig, SamplingSchedule
from repro.sim.simulator import (
    OutcomeAccumulator,
    Simulator,
    aggregate_outcomes,
)
from repro.workloads import _ffcore
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import (
    ONE_B_HORIZON_INSTRUCTIONS,
    benchmark_names,
    one_b_profile_names,
    profile_by_name,
)
from repro.workloads.streaming import SampleStream
from repro.workloads.synthetic import SyntheticWorkload

ISA = WatchdogConfig.isa_assisted_uaf()

#: A schedule that genuinely samples the suite's short synthetic traces.
SMALL = SamplingConfig(fast_forward=2000, warmup=500, sample=1500)


def _segment_digest(segment) -> int:
    """A stream digest of one sample (warm-up + measured op streams)."""
    digest = 0
    for op in segment.warmup:
        digest = zlib.crc32(repr(op).encode(), digest)
    for op in segment.measured:
        digest = zlib.crc32(repr(op).encode(), digest)
    return digest


def _assert_segments_equal(left, right):
    assert left.measured == right.measured
    assert left.warmup == right.warmup
    assert left.working_set.ranges == right.working_set.ranges
    assert left.working_set.locks == right.working_set.locks
    assert _segment_digest(left) == _segment_digest(right)


@pytest.fixture
def ffcore_disabled(monkeypatch):
    """Force the pure-Python generator for one test."""
    from repro.native import build

    monkeypatch.setenv("REPRO_FFCORE", "0")
    build.forget("ffcore")
    yield
    build.forget("ffcore")


class TestSampleStream:
    def test_segments_match_eager_bundle(self):
        for benchmark, seed in (("mcf-long", 7), ("perl", 3)):
            bundle = TraceBundle.generate(benchmark, seed=seed,
                                          instructions=20_000, sampling=SMALL)
            stream = SampleStream(benchmark, seed, 20_000, SMALL)
            segments = list(stream.segments())
            assert len(segments) == len(stream) == len(bundle.samples)
            for streamed, eager in zip(segments, bundle.samples):
                _assert_segments_equal(streamed, eager)

    def test_rejects_schedules_that_cannot_stream(self):
        with pytest.raises(ConfigurationError):
            SampleStream("mcf", 0, 10_000, SamplingConfig.unsampled(10_000))
        with pytest.raises(ConfigurationError):
            # Measures nothing at this horizon: one incomplete period.
            SampleStream("mcf", 0, 1_000, SMALL)

    def test_segment_index_bounds(self):
        stream = SampleStream("mcf-long", 7, 20_000, SMALL)
        with pytest.raises(IndexError):
            stream.segment(len(stream))
        with pytest.raises(IndexError):
            stream.segment(-1)

    def test_segment_bundle_is_single_sample(self):
        stream = SampleStream("mcf-long", 7, 20_000, SMALL)
        segment = next(iter(stream.segments()))
        bundle = stream.segment_bundle(segment)
        assert bundle.samples == (segment,)
        assert (bundle.benchmark, bundle.seed, bundle.instructions) == \
            ("mcf-long", 7, 20_000)


class TestReplayOnDemand:
    """Regenerating one random sample from the state core is bit-identical."""

    def _check_profiles(self, cases):
        rng = random.Random(0x5EED)
        for benchmark, instructions, sampling in cases:
            bundle = TraceBundle.generate(benchmark, seed=11,
                                          instructions=instructions,
                                          sampling=sampling)
            stream = SampleStream(benchmark, 11, instructions, sampling)
            assert len(stream) == len(bundle.samples)
            index = rng.randrange(len(stream))
            _assert_segments_equal(stream.segment(index),
                                   bundle.samples[index])

    @pytest.mark.skipif(_ffcore.load() is None,
                        reason="native fast-forward kernel unavailable")
    def test_long_and_paper_profiles_native(self):
        self._check_profiles([
            ("mcf-long", 300_000, SamplingConfig.quick()),
            ("gcc-long", 300_000, SamplingConfig.quick()),
            ("lbm-long", 300_000, SamplingConfig.quick()),
            ("perl-long", 300_000, SamplingConfig.quick()),
            ("mcf-paper", 1_000_000, SamplingConfig.paper_scaled(250_000)),
            ("gcc-paper", 1_000_000, SamplingConfig.paper_scaled(250_000)),
        ])

    def test_long_profiles_python_fallback(self, ffcore_disabled):
        self._check_profiles([
            ("mcf-long", 120_000, SamplingConfig.quick()),
            ("perl-long", 120_000, SamplingConfig.quick()),
        ])

    def test_first_and_last_samples(self):
        # Edge windows: the first sample (nothing precedes its warm-up but a
        # skip) and the last (stream ends at its measure window boundary).
        bundle = TraceBundle.generate("gcc-long", seed=5,
                                      instructions=40_000, sampling=SMALL)
        stream = SampleStream("gcc-long", 5, 40_000, SMALL)
        _assert_segments_equal(stream.segment(0), bundle.samples[0])
        last = len(bundle.samples) - 1
        _assert_segments_equal(stream.segment(last), bundle.samples[last])


def _retained(benchmark, seed, instructions, sampling, config, **simulator):
    """The retained replay: every sample generated up front, then replayed."""
    bundle = TraceBundle.generate(benchmark, seed=seed,
                                  instructions=instructions, sampling=sampling)
    return Simulator(**simulator).run_bundle(bundle, config)


class TestEngineStreaming:
    def _job(self, benchmark="mcf-long", instructions=20_000, native=True):
        from repro.sim.engine import BenchmarkJob

        return BenchmarkJob(
            benchmark=benchmark, seed=7, instructions=instructions,
            warmup_instructions=None, sampling=SMALL,
            cells=(("baseline", WatchdogConfig.disabled()), ("isa", ISA)),
            native=native)

    @pytest.mark.parametrize("name, instructions",
                             [("mcf-long", 20_000), ("gcc-long", 20_000),
                              ("gzip", 12_000)])
    def test_serial_streaming_matches_retained(self, name, instructions):
        from repro.sim.engine import execute_job

        job = self._job(name, instructions)
        retained = [
            CellResult.from_outcome(
                _retained(name, 7, instructions, SMALL, config), label=label)
            for label, config in job.cells]
        assert execute_job(job) == retained

    def test_python_loops_stream_what_they_retain(self):
        from repro.sim.engine import execute_job

        # A non-native job (the degraded retry) runs the Python loops.
        job = self._job(native=False)
        retained = [
            CellResult.from_outcome(
                _retained("mcf-long", 7, 20_000, SMALL, config,
                          timecore=False), label=label)
            for label, config in job.cells]
        assert execute_job(job) == retained

    @pytest.mark.parametrize("name, instructions, sampling", [
        ("mcf-long", 20_000, SamplingConfig.unsampled(20_000)),
        ("mcf-long", 1_000, SMALL),  # measures nothing
        ("gzip", 3_000, SamplingConfig.quick()),
        # The quick schedule on the default-scale profiles.
        ("gcc", 8_000, SamplingConfig.quick()),
        ("lbm", 8_000, SamplingConfig.quick())])
    def test_schedules_that_sample_nothing_run_unsampled(
            self, monkeypatch, name, instructions, sampling):
        import dataclasses

        from repro.sim.engine import execute_job

        walks = []
        segments = SampleStream.segments

        def spy(stream):
            walks.append(stream.benchmark)
            return segments(stream)

        monkeypatch.setattr(SampleStream, "segments", spy)
        job = dataclasses.replace(self._job(name, instructions),
                                  sampling=sampling)
        unsampled = dataclasses.replace(job, sampling=None)
        assert execute_job(job) == execute_job(unsampled)
        assert walks == []
        # The spy sees a job whose schedule does sample its horizon.
        execute_job(self._job())
        assert walks == ["mcf-long"]

    def test_pooled_streaming_matches_serial(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.sim.engine import execute_job

        serial = execute_job(self._job())
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = execute_job(self._job(), sample_pool=pool)
        assert pooled == serial

    def test_sweep_round_trip_matches_retained(self):
        from repro.sim.engine import SweepEngine
        from repro.sim.spec import ExperimentSettings, ExperimentSpec

        settings = ExperimentSettings(benchmarks=("mcf-long",),
                                      instructions=20_000, sampling=SMALL)
        spec = ExperimentSpec.build("stream", {"wd": ISA}, settings=settings)
        retained = {
            request.key: CellResult.from_outcome(
                _retained(request.benchmark, request.seed,
                          request.instructions, request.sampling,
                          request.config),
                label=request.label)
            for request in spec.requests()}
        assert SweepEngine().run_spec(spec) == retained


class TestOutcomeAccumulator:
    def test_matches_aggregate_outcomes_exactly(self):
        bundle = TraceBundle.generate("mcf-long", seed=7,
                                      instructions=20_000, sampling=SMALL)
        simulator = Simulator()
        outcomes = [simulator.sample_outcome(bundle, index, ISA)
                    for index in range(len(bundle.samples))]
        accumulator = OutcomeAccumulator()
        for outcome in outcomes:
            accumulator.add(outcome)
        assert len(accumulator) == len(outcomes)
        folded = accumulator.finalize()
        reference = aggregate_outcomes(outcomes)
        assert folded.timing == reference.timing
        # Port waits are floats: the streaming fold must be *equal*, not
        # merely close — same expression, same iteration order.
        assert folded.timing.port_waits == reference.timing.port_waits
        assert folded.injection == reference.injection
        assert folded.pointer_stats == reference.pointer_stats
        assert folded.pages.data_words == reference.pages.data_words
        assert folded.pages.shadow_words == reference.pages.shadow_words
        assert (folded.benchmark, folded.configuration) == \
            (reference.benchmark, reference.configuration)

    def test_empty_accumulator_refuses_finalize(self):
        with pytest.raises(ValueError):
            OutcomeAccumulator().finalize()
        with pytest.raises(ValueError):
            aggregate_outcomes([])

    def test_single_outcome_passes_through_unchanged(self):
        bundle = TraceBundle.generate("mcf", seed=7, instructions=2_000)
        simulator = Simulator()
        outcome = simulator.sample_outcome(bundle, 0, ISA)
        assert aggregate_outcomes([outcome]) is outcome
        assert aggregate_outcomes(iter([outcome])) is outcome


class TestSlotCompaction:
    """Compacting retired slot arrays must be invisible to the trace."""

    def _pair(self, name, seed, threshold=4):
        reference = SyntheticWorkload(profile_by_name(name), seed=seed)
        compacted = SyntheticWorkload(profile_by_name(name), seed=seed)
        compacted.COMPACT_RETIRED_SLOTS = threshold
        return reference, compacted

    def _assert_converged(self, reference, compacted):
        assert reference.rng.getstate() == compacted.rng.getstate()
        ref_snap = reference.snapshot_working_set()
        cmp_snap = compacted.snapshot_working_set()
        assert ref_snap.ranges == cmp_snap.ranges
        assert ref_snap.locks == cmp_snap.locks
        # Compaction genuinely fired: the compacted core retired its dead
        # slots while the reference kept appending.
        assert len(compacted._slot_sizes) < len(reference._slot_sizes)
        assert len(compacted._slot_sizes) - len(compacted._order) \
            < compacted.COMPACT_RETIRED_SLOTS + 2

    def test_emit_path(self):
        reference, compacted = self._pair("perl", 3)
        assert reference.emit(60_000) == compacted.emit(60_000)
        self._assert_converged(reference, compacted)

    def test_fast_forward_native_span(self):
        reference, compacted = self._pair("perl", 9)
        for _ in range(6):
            reference.fast_forward(9_000)
            compacted.fast_forward(9_000)
            assert reference.emit(1_000) == compacted.emit(1_000)
        self._assert_converged(reference, compacted)

    def test_fast_forward_python_span(self, ffcore_disabled):
        reference, compacted = self._pair("perl", 11)
        for _ in range(4):
            reference.fast_forward(6_000)
            compacted.fast_forward(6_000)
            assert reference.emit(800) == compacted.emit(800)
        self._assert_converged(reference, compacted)

    def test_pickle_round_trip_after_compaction(self):
        import pickle

        _, compacted = self._pair("perl", 5)
        compacted.fast_forward(20_000)
        clone = pickle.loads(pickle.dumps(compacted))
        assert clone.emit(2_000) == compacted.emit(2_000)


class TestOneBPlumbing:
    def test_profiles_registered_but_not_in_figure_grids(self):
        names = one_b_profile_names()
        assert names == ["mcf-1b", "gcc-1b", "lbm-1b", "perl-1b"]
        for name in names:
            assert profile_by_name(name).name == name
            assert name not in benchmark_names()
        assert ONE_B_HORIZON_INSTRUCTIONS == 1_000_000_000

    def test_one_b_cell_smoke_scale(self):
        # The real cell runs the full 1B horizon under `repro bench`; here
        # the same code path runs at test scale.
        from repro.sim.bench import run_one_b_cell

        record = run_one_b_cell(benchmark="mcf-1b", instructions=60_000,
                                sampling=SMALL, seed=7)
        assert record["streaming"] is True
        assert record["samples"] == len(
            SampleStream("mcf-1b", 7, 60_000, SMALL))
        assert record["measured_instructions"] == \
            SamplingSchedule(SMALL).measured_count(60_000)
        assert record["timed_uops"] > 0
        assert record["one_b_ops_per_sec"] > 0

    def test_peak_rss_recorded_on_linux(self):
        import sys

        from repro.sim.bench import peak_rss_mb

        rss = peak_rss_mb()
        if sys.platform.startswith(("linux", "darwin")):
            assert rss is not None and rss > 0

    def test_ceiling_gate(self, tmp_path):
        import json

        from repro.sim.bench import check_against_baseline

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            {"uops_per_sec": 1, "one_b_peak_rss_mb": 100}))
        record = {"compiled": {"uops_per_sec": 10_000},
                  "one_b": {"peak_rss_mb": 50.0}}
        ok, message = check_against_baseline(record, str(baseline))
        assert ok and "one_b_rss" in message and "ceiling" in message
        record["one_b"]["peak_rss_mb"] = 150.0
        ok, message = check_against_baseline(record, str(baseline))
        assert not ok and "EXCEEDED" in message
        record["one_b"]["peak_rss_mb"] = None
        ok, message = check_against_baseline(record, str(baseline))
        assert ok and "SKIPPED" in message
        del record["one_b"]
        ok, message = check_against_baseline(record, str(baseline))
        assert ok and "SKIPPED" in message
