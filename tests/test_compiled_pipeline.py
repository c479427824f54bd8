"""Golden and determinism tests for the compiled trace pipeline.

The compiled pipeline (template-expanded packed streams + the array
scheduler) must reproduce, bit for bit, what the object-per-µop reference
timing model produced before it was retired — same ``TimingResult``
including port-wait averages, same injection/pointer/page statistics —
across every benchmark profile and every Table 2 configuration.  The
reference's results are pinned as per-cell digests
(``tests/reference_digests.json``, see :func:`tests.helpers.cell_digest`),
checked here with the native timing core on or off as the environment
selects.
"""

import dataclasses
import math

import pytest

from repro.core.config import WatchdogConfig
from repro.core.uop_injection import UopInjector
from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import int_reg
from repro.memory.pages import PAGE_SIZE
from repro.pipeline.core import OutOfOrderCore
from repro.sim.compiled import stream_class_key
from repro.sim.results import CellResult
from repro.sim.simulator import Simulator
from repro.sim.trace import DynamicOp
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import benchmark_names

from tests.helpers import cell_digest, reference_digests

#: Every Watchdog configuration the Table 2 evaluation exercises.
CONFIGURATIONS = {
    "baseline": WatchdogConfig.disabled(),
    "conservative": WatchdogConfig.conservative_uaf(),
    "isa-assisted": WatchdogConfig.isa_assisted_uaf(),
    "no-lock-cache": WatchdogConfig.no_lock_cache(),
    "ideal-shadow": WatchdogConfig.idealized_shadow(),
    "bounds-fused": WatchdogConfig.full_safety_fused(),
    "bounds-2uop": WatchdogConfig.full_safety_two_uops(),
    "no-copy-elim": WatchdogConfig.isa_assisted_uaf().with_(
        copy_elimination=False),
}

INSTRUCTIONS = 600
SEED = 11

REFERENCE = reference_digests("matrix")


class TestGoldenEquivalence:
    """Every profile x every configuration against the pinned reference."""

    @pytest.mark.parametrize("profile_name", benchmark_names())
    def test_profile_matches_reference_under_all_configurations(self, profile_name):
        bundle = TraceBundle.generate(profile_name, seed=SEED,
                                      instructions=INSTRUCTIONS)
        for label, config in CONFIGURATIONS.items():
            outcome = Simulator().run_bundle(bundle, config)
            assert cell_digest(outcome, label) == \
                REFERENCE[f"{profile_name}/{label}"], \
                f"{profile_name}/{label}: diverged from the reference"

    def test_pinned_table_covers_exactly_the_matrix(self):
        # A missing digest would fail loudly, but a profile or configuration
        # dropped from the matrix would leave its pinned cells unchecked.
        assert set(REFERENCE) == {f"{profile_name}/{label}"
                                  for profile_name in benchmark_names()
                                  for label in CONFIGURATIONS}

    def test_run_profile_matches_run_bundle(self):
        config = WatchdogConfig.isa_assisted_uaf()
        bundle = TraceBundle.generate("mcf", seed=3, instructions=900)
        simulator = Simulator()
        replayed = simulator.run_bundle(bundle, config)
        regenerated = simulator.run_benchmark("mcf", config,
                                              instructions=900, seed=3)
        assert replayed.timing == regenerated.timing

    def test_generator_trace_replays_in_full(self):
        # A one-shot generator with a different instruction mid-trace: the
        # compiler must consume all of it, exactly as it would a list.
        def make_trace():
            good = Instruction(Opcode.ADD_RI, dest=int_reg(1),
                               srcs=(int_reg(1),), imm=1)
            load = Instruction(Opcode.LOAD, dest=int_reg(4),
                               srcs=(int_reg(1),))
            for i in range(101):
                if i == 50:
                    yield DynamicOp(load, address=0x2000_0000,
                                    lock_address=0x6000_0000)
                else:
                    yield DynamicOp(good)

        config = WatchdogConfig.isa_assisted_uaf()
        streamed = Simulator().run_trace(make_trace(), config)
        listed = Simulator().run_trace(list(make_trace()), config)
        assert streamed.timing.macro_instructions == 101
        assert streamed.timing == listed.timing


class TestCellDigest:
    """The pinned digest sees what the flat cell record leaves out."""

    LABEL = "isa-assisted"

    @pytest.fixture
    def outcome(self):
        bundle = TraceBundle.generate("mcf", seed=SEED,
                                      instructions=INSTRUCTIONS)
        return Simulator().run_bundle(bundle, CONFIGURATIONS[self.LABEL])

    def test_digest_sees_every_port_wait_bit(self, outcome):
        pinned = cell_digest(outcome, self.LABEL)
        waits = dict(outcome.timing.port_waits)
        port = max(waits, key=waits.get)
        waits[port] = math.nextafter(waits[port], math.inf)
        nudged = dataclasses.replace(
            outcome, timing=dataclasses.replace(outcome.timing,
                                                port_waits=waits))
        assert cell_digest(nudged, self.LABEL) != pinned

    def test_digest_sees_which_words_were_touched(self, outcome):
        # Moving one word keeps every page and word count of the cell
        # record; only the word sets themselves can tell the two apart.
        pinned = cell_digest(outcome, self.LABEL)
        for field in ("data_words", "shadow_words"):
            words = set(getattr(outcome.pages, field))
            last = max(words)
            page = last - last % PAGE_SIZE
            spare = next(word for word in range(page, page + PAGE_SIZE, 8)
                         if word not in words)
            moved = (words - {last}) | {spare}
            pages = dataclasses.replace(outcome.pages, **{field: moved})
            shifted = dataclasses.replace(outcome, pages=pages)
            assert CellResult.from_outcome(shifted, label=self.LABEL) == \
                CellResult.from_outcome(outcome, label=self.LABEL), field
            assert cell_digest(shifted, self.LABEL) != pinned, field


class TestStreamCaching:
    """Per-class stream sharing and cross-configuration isolation."""

    def test_configurations_in_one_class_share_streams(self):
        bundle = TraceBundle.generate("gzip", seed=SEED, instructions=600)
        isa = bundle.compiled_streams(WatchdogConfig.isa_assisted_uaf())
        ideal = bundle.compiled_streams(WatchdogConfig.idealized_shadow())
        no_lock = bundle.compiled_streams(WatchdogConfig.no_lock_cache())
        assert isa is ideal is no_lock  # timing-only knobs share one stream
        conservative = bundle.compiled_streams(WatchdogConfig.conservative_uaf())
        assert conservative is not isa

    def test_class_key_separates_injection_behaviours(self):
        keys = {stream_class_key(config)
                for config in (WatchdogConfig.disabled(),
                               WatchdogConfig.conservative_uaf(),
                               WatchdogConfig.isa_assisted_uaf(),
                               WatchdogConfig.full_safety_two_uops(),
                               WatchdogConfig.isa_assisted_uaf().with_(
                                   copy_elimination=False))}
        assert len(keys) == 5
        assert stream_class_key(WatchdogConfig.isa_assisted_uaf()) == \
            stream_class_key(WatchdogConfig.idealized_shadow()) == \
            stream_class_key(WatchdogConfig.no_lock_cache())

    def test_cached_streams_never_leak_state_between_configs(self):
        # Interleave configurations sharing one cached stream and re-run the
        # first: every replay of (bundle, config) must be bit-identical.
        bundle = TraceBundle.generate("mcf", seed=SEED, instructions=600)
        simulator = Simulator()
        first = simulator.run_bundle(bundle, WatchdogConfig.isa_assisted_uaf())
        simulator.run_bundle(bundle, WatchdogConfig.idealized_shadow())
        simulator.run_bundle(bundle, WatchdogConfig.no_lock_cache())
        simulator.run_bundle(bundle, WatchdogConfig.conservative_uaf())
        again = simulator.run_bundle(bundle, WatchdogConfig.isa_assisted_uaf())
        assert first.timing == again.timing
        assert first.timing.port_waits == again.timing.port_waits

    def test_repeated_scheduler_runs_do_not_mutate_the_stream(self):
        bundle = TraceBundle.generate("gzip", seed=SEED, instructions=600)
        config = WatchdogConfig.isa_assisted_uaf()
        streams = bundle.compiled_streams(config)
        results = []
        for _ in range(2):
            core = OutOfOrderCore(watchdog=config)
            from repro.sim.compiled import warm_trace, warm_working_set
            warm_working_set(core.hierarchy, streams.working_set, config)
            if streams.warm is not None:
                warm_trace(core.hierarchy, streams.warm, config)
            results.append(core.simulate_compiled(streams.measured))
        assert results[0] == results[1]

    def test_bundle_pickles_without_compiled_caches(self):
        import pickle

        bundle = TraceBundle.generate("gzip", seed=SEED, instructions=400)
        bundle.compiled_streams(WatchdogConfig.isa_assisted_uaf())
        clone = pickle.loads(pickle.dumps(bundle))
        assert clone.measured == bundle.measured
        assert "_cc_streams" not in clone.__dict__
        assert "_cc_tokens" not in clone.__dict__


class TestMacroCounting:
    """The macro-sequence stamp fix (id() reuse could merge distinct macros)."""

    def test_reexecuted_static_instruction_counts_per_dynamic_instance(self):
        # A machine-recorded trace reuses one Instruction object per dynamic
        # execution; id()-based dedup collapsed those into one macro.
        inst = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),))
        trace = [DynamicOp(inst, address=0x2000_0000 + 64 * i,
                           lock_address=0x6000_0000) for i in range(5)]
        config = WatchdogConfig.isa_assisted_uaf()
        result = Simulator().run_trace(trace, config).timing
        assert result.macro_instructions == 5

    def test_all_uops_of_one_expansion_share_one_stamp(self):
        config = WatchdogConfig.isa_assisted_uaf()
        inst = Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),))
        uops = UopInjector(config).expand(inst)
        assert len(uops) > 1
        stamps = {uop.macro_seq for uop in uops}
        assert len(stamps) == 1
        assert stamps.pop() >= 0
