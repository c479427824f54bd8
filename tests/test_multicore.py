"""Multi-core mix simulation: shared hierarchy, interleaved replay, results.

Pins the contracts the multi-core path lives by:

* **1-core identity** — a ``mixK:1@i`` mix produces a bit-identical
  ``TimingResult``/``CellResult`` to the single-core path running the same
  member bundle, with the native timing core on and off (the non-negotiable
  golden invariant of the shared-hierarchy refactor).
* **Native/Python equality at 4 cores** — the epoch-interleaved replay is
  bit-identical whether the kernel or the Python loops run the batches.
* **One shared state** — the backend's L2/L3/lock-cache arrays are the only
  shared-level state, so a sibling core's Python-path read sees what a
  native batch on another core installed, with no sync step in between.
* Mix token grammar, per-member seed derivation, per-core result blocks and
  their cache round-trip, and the ``mix_overhead`` experiment end to end.
"""

import contextlib
import dataclasses
import json
import math

import pytest

from repro.core.config import WatchdogConfig
from repro.errors import ConfigurationError
from repro.memory.hierarchy import MemoryHierarchy, SharedMemoryBackend
from repro.native import _timecore, build
from repro.pipeline.config import MachineConfig
from repro.pipeline.core import OutOfOrderCore, _derived_hierarchy_config
from repro.sim.cache import ResultCache
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.results import CellResult, CoreResult
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import Simulator
from repro.sim.spec import BASELINE_LABEL, RunRequest
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import (
    MIXES,
    mix_by_name,
    mix_member_seed,
    mix_names,
    parse_mix_benchmark,
)

KERNEL_AVAILABLE = _timecore.load() is not None
needs_kernel = pytest.mark.skipif(not KERNEL_AVAILABLE,
                                  reason="native timing core unavailable")

SEED = 11
INSTRUCTIONS = 600

CONFIGURATIONS = {
    "baseline": WatchdogConfig.disabled(),
    "isa-assisted": WatchdogConfig.isa_assisted_uaf(),
}

#: Solo tokens covering five distinct member profiles across two mixes.
SOLO_TOKENS = {
    "mix1:1@0": "lbm",
    "mix1:1@1": "milc",
    "mix1:1@3": "mcf",
    "mix5:1@2": "gzip",
    "mix5:1@3": "comp",
}

TIMECORE_MODES = (
    pytest.param(False, id="python"),
    pytest.param(True, id="native", marks=needs_kernel),
)


@contextlib.contextmanager
def timecore_off(monkeypatch):
    """The timing kernel switched off as the engine's degraded retry does
    it: the kill switch set and the memoized load decision dropped, on
    entry and again on exit (before the environment is restored)."""
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_TIMECORE", "0")
        build.forget("timecore")
        try:
            yield
        finally:
            build.forget("timecore")


@pytest.fixture
def timecore(request, monkeypatch):
    """``True`` runs the test on the timing kernel, ``False`` with it off."""
    if request.param:
        yield True
    else:
        with timecore_off(monkeypatch):
            yield False


def _mix_bundles(token, instructions=INSTRUCTIONS, seed=SEED):
    """The member bundles a mix token resolves to, under its derived seeds."""
    mix, members = parse_mix_benchmark(token)
    bundles = [TraceBundle.generate(
        profile_name,
        seed=mix_member_seed(mix.name, member_index, seed),
        instructions=instructions) for member_index, profile_name in members]
    return mix, members, bundles


class TestMixGrammar:
    def test_all_mixes_have_four_members_of_known_profiles(self):
        from repro.workloads.profiles import profile_by_name

        assert mix_names() == [mix.name for mix in MIXES]
        for mix in MIXES:
            assert len(mix.members) == 4
            for member in mix.members:
                profile_by_name(member)  # raises on unknown

    def test_plain_token_selects_every_member(self):
        mix, members = parse_mix_benchmark("mix1")
        assert mix is mix_by_name("mix1")
        assert members == tuple(enumerate(mix.members))

    def test_count_and_start_select_a_slice(self):
        _, members = parse_mix_benchmark("mix1:2")
        assert [index for index, _ in members] == [0, 1]
        mix, members = parse_mix_benchmark("mix1:1@3")
        assert members == ((3, mix.members[3]),)

    def test_non_mix_names_parse_to_none(self):
        for name in ("gzip", "mcf-long", ""):
            assert parse_mix_benchmark(name) is None

    def test_bad_tokens_raise(self):
        # "mix"-prefixed names that are neither a mix nor a profile are
        # treated as typos, not ordinary benchmarks.
        for token in ("mix9", "mixture", "mix", "mix1:0", "mix1:5",
                      "mix1:2@3", "mix1:x"):
            with pytest.raises(ConfigurationError):
                parse_mix_benchmark(token)

    def test_member_seeds_are_deterministic_and_distinct(self):
        seeds = [mix_member_seed("mix1", index, SEED) for index in range(4)]
        assert seeds == [mix_member_seed("mix1", index, SEED)
                         for index in range(4)]
        assert len(set(seeds)) == 4
        # Different mixes decorrelate the same member slot; the base seed
        # still shifts every member.
        assert mix_member_seed("mix2", 0, SEED) != seeds[0]
        assert mix_member_seed("mix1", 0, SEED + 1) != seeds[0]


class TestSingleCoreIdentity:
    """The golden invariant: a 1-core mix IS the single-core path."""

    @pytest.mark.parametrize("timecore", TIMECORE_MODES, indirect=True)
    @pytest.mark.parametrize("token", sorted(SOLO_TOKENS))
    def test_one_core_mix_matches_solo_bit_for_bit(self, token, timecore):
        mix, members, bundles = _mix_bundles(token)
        (member_index, profile_name), = members
        assert profile_name == SOLO_TOKENS[token]
        solo_sim = Simulator()
        mix_sim = MultiCoreSimulator()
        for label, config in CONFIGURATIONS.items():
            solo = solo_sim.run_bundle(bundles[0], config)
            mixed = mix_sim.run_mix(token, bundles, config)
            assert mixed.timing == solo.timing, \
                f"{token}/{label}: timing diverged from solo"
            solo_cell = CellResult.from_outcome(solo, label=label)
            mix_cell = CellResult.from_outcome(mixed, label=label)
            assert mix_cell.benchmark == token
            assert len(mix_cell.cores) == 1
            assert mix_cell.cores[0].benchmark == profile_name
            assert dataclasses.replace(mix_cell, benchmark=solo_cell.benchmark,
                                       cores=()) == solo_cell, \
                f"{token}/{label}: statistics diverged from solo"


class TestMultiCoreReplay:
    @needs_kernel
    def test_four_core_mix_native_matches_python(self, monkeypatch):
        _, members, bundles = _mix_bundles("mix1")
        simulator = MultiCoreSimulator()
        kernel = {label: simulator.run_mix("mix1", bundles, config)
                  for label, config in CONFIGURATIONS.items()}
        with timecore_off(monkeypatch):
            python = {label: simulator.run_mix("mix1", bundles, config)
                      for label, config in CONFIGURATIONS.items()}
        for label in CONFIGURATIONS:
            assert CellResult.from_outcome(kernel[label], label=label) == \
                CellResult.from_outcome(python[label], label=label), \
                f"mix1/{label}: native and Python replay diverged"

    @pytest.mark.parametrize("timecore", TIMECORE_MODES, indirect=True)
    def test_per_core_blocks_attribute_the_totals(self, timecore):
        _, members, bundles = _mix_bundles("mix1")
        simulator = MultiCoreSimulator()
        outcome = simulator.run_mix("mix1", bundles,
                                    CONFIGURATIONS["isa-assisted"])
        cell = CellResult.from_outcome(outcome, label="isa-assisted")
        assert [core.core for core in cell.cores] == [0, 1, 2, 3]
        assert [core.benchmark for core in cell.cores] == \
            [profile for _, profile in members]
        assert sum(core.total_uops for core in cell.cores) == cell.total_uops
        assert sum(core.lock_cache_misses for core in cell.cores) == \
            cell.lock_cache_misses
        assert sum(core.memory_accesses for core in cell.cores) == \
            cell.memory_accesses
        # The mix's cycle count is the slowest core's, not the sum: the
        # cores run concurrently.
        assert cell.cycles == max(core.cycles for core in cell.cores)
        for core in cell.cores:
            assert core.cycles > 0 and core.total_uops > 0

    def test_simulator_rejects_sampled_bundles(self):
        sampling = SamplingConfig(fast_forward=313, warmup=328, sample=356)
        sampled = TraceBundle.generate("mcf-long", seed=SEED,
                                       instructions=4_000, sampling=sampling)
        assert sampled.samples
        simulator = MultiCoreSimulator()
        with pytest.raises(ConfigurationError):
            simulator.run_mix("mix1", [sampled],
                              CONFIGURATIONS["baseline"])

    def test_mix_token_rejects_sampling_schedule_at_spec_build(self):
        with pytest.raises(ConfigurationError):
            RunRequest(benchmark="mix1", label="baseline",
                       config=CONFIGURATIONS["baseline"],
                       instructions=1_000_000,
                       sampling=SamplingConfig.quick())


@needs_kernel
class TestSharedLevels:
    """Native and Python-path cores over one backend share its arrays."""

    @staticmethod
    def _core_pair(native_flags):
        """Two cores over one shared backend, each forced native or Python."""
        machine = MachineConfig()
        config = WatchdogConfig.isa_assisted_uaf()
        backend = SharedMemoryBackend(_derived_hierarchy_config(
            machine.hierarchy, config.lock_cache_enabled,
            config.ideal_shadow))
        cores = [OutOfOrderCore(machine=machine, watchdog=config,
                                hierarchy=MemoryHierarchy(shared=backend,
                                                          core_id=index),
                                timecore=flag)
                 for index, flag in enumerate(native_flags)]
        return backend, [core.hierarchy for core in cores]

    @staticmethod
    def _access_plan(cores, length=2_000, seed=99):
        import random

        rng = random.Random(seed)
        plans = []
        for _ in range(cores):
            addrs, specs = [], []
            for _ in range(length):
                addrs.append(rng.randrange(1 << 22))
                specs.append(rng.randrange(3) | rng.randrange(2) << 2 | 8)
            plans.append((addrs, specs))
        return plans

    def test_sibling_python_read_hits_native_install(self):
        backend, (native_h, python_h) = self._core_pair((True, False))
        (addrs, specs), _ = self._access_plan(2)
        lats = [0] * len(addrs)
        native_h.access_batch(addrs, specs, list(range(len(addrs))), lats)
        # A Python-path read on the sibling: the line the native core
        # installed in the shared L3 hits from the other core.
        l3_misses_before = backend.l3.misses
        python_h.access(addrs[0], is_write=False)
        assert backend.l3.misses == l3_misses_before
        # Attribution followed the reader, not the installer.
        assert python_h.stats.shared["l3_misses"] == 0

    def test_interleaved_mixed_path_batches_match_pure_python(self):
        """Alternating native/Python per-core batches == all-Python twin."""
        EPOCH = 512
        mixed_backend, mixed = self._core_pair((True, False))
        twin_backend, twin = self._core_pair((False, False))
        plans = self._access_plan(2)
        length = len(plans[0][0])
        # Positions are absolute indices into the latency buffer, so each
        # core owns one full-length buffer across all its epoch batches —
        # exactly how MultiCoreSimulator._replay_interleaved drives it.
        lats = {id(hierarchies): [[0] * length for _ in hierarchies]
                for hierarchies in (mixed, twin)}
        offset = 0
        while offset < length:
            stop = offset + EPOCH
            for hierarchies in (mixed, twin):
                for index, ((addrs, specs), hierarchy) in enumerate(
                        zip(plans, hierarchies)):
                    hierarchy.access_batch(
                        addrs[offset:stop], specs[offset:stop],
                        list(range(offset, min(stop, length))),
                        lats[id(hierarchies)][index])
            offset = stop
        assert lats[id(mixed)] == lats[id(twin)]
        for mixed_h, twin_h in zip(mixed, twin):
            assert _timecore._same_hierarchy(mixed_h, twin_h)
        for shared_name in ("l2", "l3", "lock_cache"):
            mixed_cache = getattr(mixed_backend, shared_name)
            twin_cache = getattr(twin_backend, shared_name)
            assert (mixed_cache.hits, mixed_cache.misses) == \
                (twin_cache.hits, twin_cache.misses)


class TestResultPlumbing:
    def _mix_cell(self):
        _, _, bundles = _mix_bundles("mix5:2")
        simulator = MultiCoreSimulator()
        outcome = simulator.run_mix("mix5:2", bundles,
                                    CONFIGURATIONS["isa-assisted"])
        return CellResult.from_outcome(outcome, label="isa-assisted")

    def test_cores_survive_dict_and_json_round_trip(self):
        cell = self._mix_cell()
        assert len(cell.cores) == 2
        assert all(isinstance(core, CoreResult) for core in cell.cores)
        restored = CellResult.from_dict(
            json.loads(json.dumps(cell.to_dict())))
        assert restored == cell
        assert isinstance(restored.cores, tuple)
        hash(restored)  # cache keys require hashable cells

    def test_cores_survive_the_result_cache(self, tmp_path):
        cell = self._mix_cell()
        cache = ResultCache(str(tmp_path))
        cache.store("mix-cell-key", cell)
        assert cache.load("mix-cell-key") == cell


class TestMixOverheadExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import run_experiments
        from repro.experiments.common import ExperimentSettings

        suite = run_experiments(["mix_overhead"],
                                settings=ExperimentSettings.quick())
        return suite.reports[0].result

    def test_quick_run_reports_contention_and_per_core_stats(self, result):
        assert result.summary["mix_count"] == 2.0
        for series in ("overhead_percent_1core", "overhead_percent_2core",
                       "overhead_percent_4core", "lock_mpki_4core",
                       "lock_contention_mpki"):
            assert set(result.series[series]) == {"mix1", "mix5"}
        # Per-core attribution rows exist for every member of every mix.
        per_core = result.series["core_ipc"]
        assert len(per_core) == 8
        for mix_name in ("mix1", "mix5"):
            for index, member in enumerate(mix_by_name(mix_name).members):
                row = f"{mix_name}/c{index}:{member}"
                assert row in per_core and per_core[row] > 0
        assert "mean_lock_contention_mpki" in result.summary
        assert "watchdog_geomean_percent_4core" in result.summary

    def test_quick_summary_matches_pinned_golden(self, result):
        """The mix family's golden regression net (quick scale: mix1+mix5).

        The sampled-suite golden in ``test_experiment_registry`` excludes
        ``mix_overhead`` (mixes measure their full horizon unsampled, which
        is a multi-minute run at the 120k golden horizon); this pin covers
        the multi-core path instead — any drift in member seed derivation,
        warm-up ordering, epoch interleaving, shared-level attribution or
        the overhead/contention extraction shows up here.
        """
        assert result.summary == pytest.approx({
            "mix_count": 2.0,
            "watchdog_geomean_percent_1core": 12.901296439088682,
            "watchdog_geomean_percent_4core": 13.726970471573008,
            "mean_lock_contention_mpki": -0.12682271070623546,
        }, rel=1e-9)

    def test_failed_cells_poison_only_their_core_count(self):
        """A quarantined mix cell reads NaN where it is used, nowhere else."""
        from repro.experiments import mix_overhead
        from repro.experiments.common import (
            ExperimentContext,
            ExperimentSettings,
        )

        settings = ExperimentSettings.quick()
        spec = mix_overhead.spec(settings)
        # Every Watchdog cell is 10% slower than its baseline.
        cells = {request.key: CellResult(
                     benchmark=request.benchmark, configuration=request.label,
                     cycles=110 if request.label == mix_overhead.WATCHDOG
                     else 100)
                 for request in spec.requests()}
        cells["mix1:2", mix_overhead.WATCHDOG] = CellResult.failed_cell(
            "mix1:2", mix_overhead.WATCHDOG)
        cells["mix5:1@0", BASELINE_LABEL] = CellResult.failed_cell(
            "mix5:1@0", BASELINE_LABEL)
        result = mix_overhead.extract(ExperimentContext(
            settings=settings, spec=spec, cells=cells))
        series = result.series
        assert math.isnan(series["overhead_percent_2core"]["mix1"])
        assert math.isnan(series["overhead_percent_1core"]["mix5"])
        assert series["overhead_percent_1core"]["mix1"] == pytest.approx(10.0)
        assert series["overhead_percent_2core"]["mix5"] == pytest.approx(10.0)
        assert series["overhead_percent_4core"] == pytest.approx(
            {"mix1": 10.0, "mix5": 10.0})
        assert math.isnan(result.summary["watchdog_geomean_percent_1core"])
        assert result.summary["watchdog_geomean_percent_4core"] \
            == pytest.approx(10.0)
