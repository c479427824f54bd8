"""Tests for the state-evolution / trace-emission generator split.

Covers the three equivalences the refactor must preserve:

* **golden digests** — traces and sampled bundles are bit-identical to the
  pre-split generator (the digests below were recorded from the monolithic
  ``SyntheticWorkload`` before the state core existed, so they pin
  before-vs-after equality permanently, not merely internal consistency);
* **fast-forward ≡ drained generation** — ``fast_forward(n)`` leaves the
  RNG, allocator, working set, cursors and hot set exactly where emitting
  and discarding ``n`` ops would, for arbitrary window sizes including ones
  that split allocation events;
* **native kernel ≡ pure Python** — the optional C kernel's skip and the
  emission layer's dropped events advance state identically.

Plus the satellite behaviours: the shape-indexed instruction table, the
``*-paper`` profiles and horizon-fitted schedule, the paper-scale
validation, and the engine's per-sample fan-out determinism.
"""

import dataclasses
import zlib

import pytest

from repro.core.config import WatchdogConfig
from repro.errors import ConfigurationError
from repro.sim.engine import SweepEngine
from repro.sim.sampling import SamplingConfig
from repro.sim.spec import ExperimentSettings, ExperimentSpec, RunRequest
from repro.workloads import _ffcore, synthetic
from repro.workloads.bundle import (
    MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS,
    TraceBundle,
)
from repro.workloads.profiles import (
    PAPER_HORIZON_INSTRUCTIONS,
    BenchmarkProfile,
    benchmark_names,
    paper_profile_names,
    profile_by_name,
)
from repro.workloads.synthetic import (
    SHAPE_IDS,
    SHAPE_INSTRUCTIONS,
    SHAPES,
    SyntheticWorkload,
)
from repro.workloads.state_core import MAX_EVENT_OPS

from tests.helpers import snapshot_lines


def op_key(op):
    inst = op.instruction
    return (inst.opcode.name, str(inst.dest),
            tuple(str(src) for src in inst.srcs), inst.imm, int(inst.size),
            inst.pointer_hint.name, op.address, op.lock_address,
            op.mispredicted)


def digest_ops(ops):
    crc = 0
    for op in ops:
        crc = zlib.crc32(repr(op_key(op)).encode(), crc)
    return f"{crc:08x}"


def digest_bundle(bundle, locks=True):
    # The digests were recorded when a snapshot held its lines and locks as
    # tuples; hashing the same tuples keeps every pinned value.  The
    # unsampled pins were recorded without the snapshot's locks.
    crc = 0
    for sample in bundle.samples:
        crc = zlib.crc32(digest_ops(sample.warmup).encode(), crc)
        crc = zlib.crc32(digest_ops(sample.measured).encode(), crc)
        crc = zlib.crc32(repr(snapshot_lines(sample.working_set)).encode(),
                         crc)
        if locks:
            crc = zlib.crc32(repr(tuple(sample.working_set.locks)).encode(),
                             crc)
    return f"{crc:08x}"


def state_fingerprint(workload):
    """Everything the functional state comprises, hashable for equality."""
    snapshot = workload.snapshot_working_set()
    return (
        workload.rng.getstate(),
        tuple(workload._order),
        tuple(workload._hot),
        tuple(tuple(column) for column in workload._slot_columns()),
        workload._global_cursor,
        workload._call_depth,
        workload._value_rotation,
        workload._allocation_counter,
        workload.heap.columns(),
        snapshot_lines(snapshot),
        tuple(snapshot.locks),
    )


class TestGoldenEquality:
    """Digests recorded from the pre-split generator (seed commit 24d7b84)."""

    #: 40k-instruction sampled bundles (seed 7, schedule 2000/500/1500) on
    #: every ``*-long`` profile — the acceptance criterion's target set.
    SAMPLED_LONG = {
        "mcf-long": "e9367782",
        "gcc-long": "5333a50a",
        "lbm-long": "cb03ac95",
        "perl-long": "df71b1dd",
    }
    #: 9k-instruction sampled bundles (seed 3) under a schedule misaligned
    #: with any event structure, so windows split multi-op events.
    SAMPLED_SHORT = {
        "mcf": "2062ab1f",
        "perl": "f97968b8",
        "gcc": "d5eafdb1",
        "twolf": "464bed40",
    }
    #: Conventional (unsampled) bundles, pinning the warm-up/measure
    #: truncation-discard semantics of ``generate()``.
    PLAIN = {
        ("gzip", 7, 3_000): "0696cbb8",
        ("mcf-long", 1, 6_000): "1bcd825c",
    }
    #: Raw continuous traces.
    TRACES = {
        ("gcc", 3, 5_000): "b15d0a39",
        ("perl-long", 2, 5_000): "5418c4a2",
    }

    @pytest.mark.parametrize("name", sorted(SAMPLED_LONG))
    def test_sampled_long_profiles_match_pre_split_generator(self, name):
        bundle = TraceBundle.generate(
            name, seed=7, instructions=40_000,
            sampling=SamplingConfig(fast_forward=2000, warmup=500, sample=1500))
        assert bundle.samples, "schedule must genuinely sample"
        assert digest_bundle(bundle) == self.SAMPLED_LONG[name]

    @pytest.mark.parametrize("name", sorted(SAMPLED_SHORT))
    def test_sampled_event_straddling_windows_match(self, name):
        bundle = TraceBundle.generate(
            name, seed=3, instructions=9_000,
            sampling=SamplingConfig(fast_forward=313, warmup=328, sample=356))
        assert digest_bundle(bundle) == self.SAMPLED_SHORT[name]

    @pytest.mark.parametrize("key", sorted(PLAIN))
    def test_unsampled_bundles_match(self, key):
        name, seed, instructions = key
        bundle = TraceBundle.generate(name, seed=seed,
                                      instructions=instructions)
        assert len(bundle.samples) == 1
        assert digest_bundle(bundle, locks=False) == self.PLAIN[key]

    @pytest.mark.parametrize("key", sorted(TRACES))
    def test_raw_traces_match(self, key):
        name, seed, instructions = key
        workload = SyntheticWorkload(profile_by_name(name), seed=seed)
        assert digest_ops(workload.trace(instructions)) == self.TRACES[key]


class TestFastForwardEquivalence:
    def _pair(self, name, seed, force_python):
        reference = SyntheticWorkload(profile_by_name(name), seed=seed)
        skipper = SyntheticWorkload(profile_by_name(name), seed=seed)
        if force_python:
            skipper._ffcore = None
        return reference, skipper

    @pytest.mark.parametrize("force_python", (False, True))
    @pytest.mark.parametrize("name,seed", (("mcf", 7), ("perl", 3),
                                           ("lbm", 1), ("mcf-long", 7)))
    def test_fast_forward_equals_drained_generation(self, name, seed,
                                                    force_python):
        reference, skipper = self._pair(name, seed, force_python)
        count = 12_000
        reference.emit(count)
        skipper.fast_forward(count)
        assert state_fingerprint(skipper) == state_fingerprint(reference)
        # The continuation — what a measure window would time — matches too.
        assert [op_key(op) for op in skipper.emit(600)] == \
            [op_key(op) for op in reference.emit(600)]

    @pytest.mark.parametrize("force_python", (False, True))
    def test_random_window_partitions(self, force_python):
        """Property-style: any skip/emit partition of the stream is exact.

        The meta-RNG draws window sizes from 1 op (guaranteed to split
        multi-op events, including allocation events on the alloc-heavy
        profile below) up to several thousand.
        """
        import random as random_mod

        alloc_heavy = BenchmarkProfile(
            name="alloc-heavy-test", memory_fraction=0.3, load_fraction=0.6,
            word_integer_fraction=0.4, pointer_fraction=0.3,
            fp_access_fraction=0.05, fp_compute_fraction=0.1,
            branch_fraction=0.15, mispredict_rate=0.05, calls_per_kilo=5.0,
            allocs_per_kilo=60.0, typical_alloc_bytes=96,
            working_set_objects=64, temporal_locality=0.7,
            spatial_locality=0.6)
        meta = random_mod.Random(20260726)
        cases = [(alloc_heavy, 11), (alloc_heavy, 12),
                 (profile_by_name("twolf"), 5), (profile_by_name("gcc"), 9)]
        for profile, seed in cases:
            reference = SyntheticWorkload(profile, seed=seed)
            skipper = SyntheticWorkload(profile, seed=seed)
            if force_python:
                skipper._ffcore = None
            emitted = []
            for _ in range(12):
                skip = meta.choice((1, 2, 3, 7, meta.randrange(1, 40),
                                    meta.randrange(50, 3000)))
                take = meta.randrange(1, 80)
                reference_window = reference.emit(skip + take)[skip:]
                skipper.fast_forward(skip)
                emitted.append((reference_window, skipper.emit(take)))
            for reference_window, skipped_window in emitted:
                assert [op_key(op) for op in skipped_window] == \
                    [op_key(op) for op in reference_window]
            assert state_fingerprint(skipper) == state_fingerprint(reference)

    def test_fast_forward_splits_allocation_events(self):
        """A 1-op fast-forward stream must split runtime-call sequences."""
        profile = dataclasses.replace(
            profile_by_name("perl"), name="alloc-every-op",
            allocs_per_kilo=300.0, working_set_objects=16)
        reference = SyntheticWorkload(profile, seed=2)
        skipper = SyntheticWorkload(profile, seed=2)
        reference_ops = reference.emit(400)
        got = []
        for index in range(400):
            if index % 2 == 0:
                skipper.fast_forward(1)
                got.append(None)
            else:
                got.append(skipper.emit(1)[0])
        for index, op in enumerate(got):
            if op is not None:
                assert op_key(op) == op_key(reference_ops[index])
        assert state_fingerprint(skipper) == state_fingerprint(reference)

    @pytest.mark.skipif(_ffcore.load() is None,
                        reason="native fast-forward kernel unavailable")
    def test_native_kernel_matches_pure_python(self):
        for name, seed, count in (("mcf-long", 7, 30_000),
                                  ("gcc-long", 2, 30_000),
                                  ("lbm", 4, 15_000)):
            native = SyntheticWorkload(profile_by_name(name), seed=seed)
            fallback = SyntheticWorkload(profile_by_name(name), seed=seed)
            assert native._ffcore is not None
            fallback._ffcore = None
            native.fast_forward(count)
            fallback.fast_forward(count)
            assert state_fingerprint(native) == state_fingerprint(fallback)

    def test_generate_refuses_to_drop_pending_ops(self):
        workload = SyntheticWorkload(profile_by_name("perl"), seed=1)
        while not workload._pending:
            workload.emit(1)
        with pytest.raises(ConfigurationError, match="continuous stream"):
            list(workload.generate(10))

    @pytest.mark.skipif(_ffcore.load() is None,
                        reason="native fast-forward kernel unavailable")
    def test_fast_forward_throughput_beats_drained_generation(self):
        """The split's raison d'être: skip windows far cheaper than emission.

        Drained generation is the Python emitter (the kernel emits as fast
        as it skips, by design).  Without the kernel a skip window draws
        the Python emitter's own events, so only the native skip is held to
        this bound.  Conservative 2x bound so the test is robust on any
        machine; `repro bench` tracks the real ratio (>= 10x against the
        recorded pre-split baseline, ~45x with the native kernel on a
        development machine).
        """
        import time

        workload = SyntheticWorkload(profile_by_name("mcf-long"), seed=7)
        kernel, workload._ffcore = workload._ffcore, None
        started = time.perf_counter()
        workload.emit(20_000)
        emit_wall = time.perf_counter() - started
        workload._ffcore = kernel
        started = time.perf_counter()
        workload.fast_forward(20_000)
        skip_wall = time.perf_counter() - started
        assert skip_wall * 2 < emit_wall

    @pytest.mark.skipif(_ffcore.load() is None,
                        reason="native fast-forward kernel unavailable")
    def test_native_emission_beats_the_python_emitter(self):
        """The kernel writes a window's token columns at least 5x faster
        than the Python emitter builds and tokenizes its ops (~40x on a
        development machine).  Best of three fresh windows each, so one
        collector pause cannot decide it."""
        import time

        def best_window(native):
            best, windows = None, []
            for _ in range(3):
                workload = SyntheticWorkload(profile_by_name("mcf-long"),
                                             seed=7)
                if not native:
                    workload._ffcore = None
                started = time.perf_counter()
                windows.append(workload.emit(20_000))
                wall = time.perf_counter() - started
                best = wall if best is None else min(best, wall)
            return best, windows

        native_wall, native_windows = best_window(native=True)
        python_wall, python_windows = best_window(native=False)
        assert native_windows == python_windows
        assert native_wall * 5 < python_wall


class TestInstructionTable:
    """Every generated instruction comes from the one shape table."""

    def test_table_matches_shapes_entry_for_entry(self):
        assert len(SHAPE_INSTRUCTIONS) == len(SHAPES) == _ffcore.N_SHAPES
        for index, (inst, shape) in enumerate(zip(SHAPE_INSTRUCTIONS, SHAPES)):
            assert (inst.opcode, inst.dest, inst.srcs, inst.imm, inst.size,
                    inst.pointer_hint) == shape
            assert SHAPE_IDS[shape] == index

    def test_python_emitter_tables_hold_every_table_entry(self):
        """The Python emitter's per-register tables hold the table's own
        objects, and between them every shape."""
        def flatten(table):
            if isinstance(table, tuple):
                for entry in table:
                    yield from flatten(entry)
            else:
                yield table

        emitted = {id(inst) for name in ("_REFRESH", "_MEMORY", "_FADD",
                                         "_ALU", "_BRANCH", "_SETIDENT",
                                         "_GETIDENT", "_CALL", "_RET")
                   for inst in flatten(getattr(synthetic, name))}
        assert emitted == {id(inst) for inst in SHAPE_INSTRUCTIONS}

    @pytest.mark.parametrize("force_python", (False, True))
    def test_traces_are_unchanged_and_drawn_from_the_table(self,
                                                           force_python):
        key = ("gcc", 3, 5_000)
        name, seed, instructions = key
        workloads = [SyntheticWorkload(profile_by_name(name), seed=seed)
                     for _ in range(2)]
        if force_python:
            for workload in workloads:
                workload._ffcore = None
        elif workloads[0]._ffcore is None:
            pytest.skip("native generator kernel unavailable")
        first, second = (workload.trace(instructions)
                         for workload in workloads)
        assert digest_ops(first) == TestGoldenEquality.TRACES[key]
        table = {id(inst) for inst in SHAPE_INSTRUCTIONS}
        assert all(id(op.instruction) in table for op in first)
        # Two workloads share the instruction objects, not just their values.
        assert all(a.instruction is b.instruction
                   for a, b in zip(first, second))


class TestPaperScale:
    def test_paper_profiles_registered_but_not_in_figure_grids(self):
        names = paper_profile_names()
        assert "mcf-paper" in names
        for name in names:
            assert profile_by_name(name).name == name
            assert name not in benchmark_names()

    def test_paper_scaled_schedule_keeps_the_papers_proportions(self):
        schedule = SamplingConfig.paper_scaled()
        assert schedule.period == 10_000_000
        assert schedule.sampled_fraction == pytest.approx(0.02)
        assert schedule.warmup == schedule.sample
        custom = SamplingConfig.paper_scaled(1_000_000)
        assert custom.period == 1_000_000
        assert custom.sampled_fraction == pytest.approx(0.02)
        with pytest.raises(ConfigurationError):
            SamplingConfig.paper_scaled(10)

    def test_paper_scaled_fits_the_paper_horizon(self):
        from repro.sim.sampling import SamplingSchedule

        schedule = SamplingSchedule(SamplingConfig.paper_scaled())
        measured = schedule.measured_count(PAPER_HORIZON_INSTRUCTIONS)
        assert measured == PAPER_HORIZON_INSTRUCTIONS // 50  # 2%

    def test_spec_rejects_schedule_that_measures_nothing_at_paper_scale(self):
        with pytest.raises(ConfigurationError, match="paper-scale"):
            ExperimentSettings(benchmarks=("mcf-paper",),
                               instructions=PAPER_HORIZON_INSTRUCTIONS,
                               sampling=SamplingConfig.paper())
        with pytest.raises(ConfigurationError, match="paper-scale"):
            RunRequest("mcf-paper", "wd", WatchdogConfig.isa_assisted_uaf(),
                       instructions=PAPER_HORIZON_INSTRUCTIONS,
                       sampling=SamplingConfig.paper())

    def test_bundle_rejects_normalization_at_paper_scale(self):
        # A sampled bundle never falls back to materializing its horizon.
        with pytest.raises(ConfigurationError, match="genuinely samples"):
            TraceBundle.generate(
                "mcf-paper", seed=7,
                instructions=MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS + 1,
                sampling=SamplingConfig.paper())

    def test_unsampled_paper_horizon_rejected_everywhere(self):
        # Forgetting --sampling entirely must not materialize 100M ops.
        with pytest.raises(ConfigurationError, match="sampling schedule"):
            TraceBundle.generate(
                "mcf-paper", seed=7,
                instructions=MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS + 1)
        with pytest.raises(ConfigurationError, match="sampling schedule"):
            ExperimentSettings(benchmarks=("mcf-paper",),
                               instructions=PAPER_HORIZON_INSTRUCTIONS)
        with pytest.raises(ConfigurationError, match="sampling schedule"):
            RunRequest("mcf-paper", "wd", WatchdogConfig.isa_assisted_uaf(),
                       instructions=PAPER_HORIZON_INSTRUCTIONS)

    def test_paper_settings_classmethod(self):
        settings = ExperimentSettings.paper()
        assert settings.instructions == PAPER_HORIZON_INSTRUCTIONS
        assert set(settings.benchmarks) == set(paper_profile_names())
        assert settings.sampling.sampled_fraction == pytest.approx(0.02)

class TestEngineSampleFanOut:
    ISA = WatchdogConfig.isa_assisted_uaf()
    SMALL = SamplingConfig(fast_forward=2000, warmup=500, sample=1500)

    def spec(self):
        settings = ExperimentSettings(benchmarks=("mcf",),
                                      instructions=18_000,
                                      sampling=self.SMALL)
        return ExperimentSpec.build(
            "fanout", {"wd": self.ISA}, settings=settings)

    def test_single_job_fans_samples_across_pool_bit_identically(self):
        spec = self.spec()
        serial = SweepEngine(workers=1)
        expected = serial.run_spec(spec)
        parallel = SweepEngine(workers=2)
        try:
            got = parallel.run_spec(spec)
        finally:
            parallel.close()
        assert got == expected
        assert parallel.simulated_cells == len(spec)

    def test_fan_out_only_engages_for_singleton_sampled_jobs(self):
        # Two benchmarks -> two jobs -> ordinary per-job parallelism; the
        # results must still match serial execution exactly.
        settings = ExperimentSettings(benchmarks=("gzip", "mcf"),
                                      instructions=12_000,
                                      sampling=self.SMALL)
        spec = ExperimentSpec.build("pair", {"wd": self.ISA},
                                    settings=settings)
        serial = SweepEngine(workers=1)
        expected = serial.run_spec(spec)
        parallel = SweepEngine(workers=2)
        try:
            got = parallel.run_spec(spec)
        finally:
            parallel.close()
        assert got == expected
