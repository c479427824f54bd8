"""Tests for the sweep engine: specs, determinism, caching, JSON round-trips."""

import json

import pytest

from repro.core.config import WatchdogConfig
from repro.errors import ConfigurationError
from repro.experiments import run_experiments
from repro.experiments.common import ExperimentSettings
from repro.sim.cache import ResultCache, request_fingerprint
from repro.sim.engine import SweepEngine
from repro.sim.results import CellResult, ExperimentResult
from repro.sim.spec import BASELINE_LABEL, ExperimentSpec, RunRequest
from repro.workloads.bundle import TraceBundle

#: Deliberately tiny: two benchmarks, short traces, so the whole engine layer
#: (including a real process pool) runs in a few seconds.
QUICK = ExperimentSettings.quick(benchmarks=("gzip", "mcf"), instructions=1200)

ISA = "isa-assisted"


def quick_request(label=ISA, config=None) -> RunRequest:
    """One cell of the QUICK grid (gzip), by default the ISA-assisted one."""
    return RunRequest("gzip", label, config or WatchdogConfig.isa_assisted_uaf(),
                      instructions=QUICK.instructions, seed=QUICK.seed)


def quick_spec(include_baseline=True) -> ExperimentSpec:
    return ExperimentSpec.build("quick", {
        ISA: WatchdogConfig.isa_assisted_uaf(),
        "conservative": WatchdogConfig.conservative_uaf(),
    }, settings=QUICK, include_baseline=include_baseline)


class TestSpecs:
    def test_requests_enumerate_full_grid_in_order(self):
        requests = quick_spec().requests()
        assert [r.key for r in requests] == [
            ("gzip", BASELINE_LABEL), ("gzip", ISA), ("gzip", "conservative"),
            ("mcf", BASELINE_LABEL), ("mcf", ISA), ("mcf", "conservative"),
        ]
        assert len(quick_spec()) == len(requests)

    def test_baseline_can_be_excluded(self):
        labels = {r.label for r in quick_spec(include_baseline=False).requests()}
        assert BASELINE_LABEL not in labels

    def test_requests_carry_settings(self):
        request = quick_spec().requests()[0]
        assert request.instructions == QUICK.instructions
        assert request.seed == QUICK.seed

    @pytest.mark.parametrize("instructions", [0, -5])
    def test_settings_and_requests_need_an_instruction(self, instructions):
        with pytest.raises(ConfigurationError, match="instructions must be"):
            ExperimentSettings(instructions=instructions)
        with pytest.raises(ConfigurationError, match="instructions must be"):
            RunRequest("gzip", ISA, WatchdogConfig.isa_assisted_uaf(),
                       instructions=instructions)
        assert RunRequest("gzip", ISA, WatchdogConfig.isa_assisted_uaf(),
                          instructions=1).instructions == 1


class TestTraceSharing:
    def test_bundle_generation_is_deterministic(self):
        (first,) = TraceBundle.generate("gzip", seed=7,
                                        instructions=600).samples
        (second,) = TraceBundle.generate("gzip", seed=7,
                                         instructions=600).samples
        assert first.measured == second.measured
        assert first.warmup == second.warmup
        assert first.working_set == second.working_set

    def test_bundle_replay_matches_per_config_regeneration(self):
        from repro.sim.simulator import Simulator

        simulator = Simulator()
        bundle = TraceBundle.generate("mcf", seed=3, instructions=800)
        for config in (WatchdogConfig.disabled(), WatchdogConfig.isa_assisted_uaf()):
            replayed = simulator.run_bundle(bundle, config)
            regenerated = simulator.run_bundle(
                TraceBundle.generate("mcf", seed=3, instructions=800), config)
            assert replayed.cycles == regenerated.cycles
            assert replayed.timing.total_uops == regenerated.timing.total_uops

    def test_bundle_is_reusable_across_configs(self):
        from repro.sim.simulator import Simulator

        simulator = Simulator()
        bundle = TraceBundle.generate("gzip", seed=7, instructions=600)
        first = simulator.run_bundle(bundle, WatchdogConfig.isa_assisted_uaf())
        second = simulator.run_bundle(bundle, WatchdogConfig.isa_assisted_uaf())
        assert first.cycles == second.cycles


class TestWorkerCount:
    def test_none_means_one_worker(self):
        assert SweepEngine().workers == SweepEngine(workers=None).workers == 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_a_count_below_one_is_refused(self, workers):
        with pytest.raises(ConfigurationError,
                           match=f"workers must be >= 1, got {workers}"):
            SweepEngine(workers=workers)


class TestDeterminism:
    def test_parallel_results_identical_to_serial(self):
        parallel_engine = SweepEngine(workers=4)
        try:
            parallel = parallel_engine.run_spec(quick_spec())
        finally:
            parallel_engine.close()
        assert SweepEngine(workers=1).run_spec(quick_spec()) == parallel

    def test_fig7_summary_identical_serial_vs_parallel(self):
        results = []
        for workers in (1, 4):
            engine = SweepEngine(workers=workers)
            try:
                suite = run_experiments(["fig7"], settings=QUICK,
                                        engine=engine)
            finally:
                engine.close()
            results.append(suite.reports[0].result)
        serial, parallel = results
        assert serial.series == parallel.series
        assert serial.summary == parallel.summary

    def test_engine_memoizes_cells(self):
        engine = SweepEngine()
        first = engine.cell(quick_request())
        simulated = engine.simulated_cells
        second = engine.cell(quick_request())
        assert first is second
        assert engine.simulated_cells == simulated

    def test_memo_shares_identical_config_across_labels(self):
        # fig7 calls isa_assisted_uaf "isa-assisted", fig9 "with-lock-cache",
        # fig11 "watchdog": one simulation must serve all three.
        engine = SweepEngine()
        first = engine.cell(quick_request("isa-assisted"))
        relabelled = engine.cell(quick_request("watchdog"))
        assert engine.simulated_cells == 1
        assert relabelled.configuration == "watchdog"
        assert relabelled.cycles == first.cycles

    def test_memo_does_not_alias_same_label_different_inputs(self):
        engine = SweepEngine()
        isa = engine.cell(RunRequest("gzip", "wd", WatchdogConfig.isa_assisted_uaf(),
                                     instructions=1200, seed=7))
        other = engine.cell(RunRequest("gzip", "wd", WatchdogConfig.conservative_uaf(),
                                       instructions=2400, seed=9))
        assert engine.simulated_cells == 2
        assert other is not isa
        assert other.total_uops != isa.total_uops


class TestResultCache:
    def test_warm_rerun_simulates_nothing(self, tmp_path):
        cold = SweepEngine(cache=ResultCache(tmp_path))
        cold_cells = cold.run_spec(quick_spec())
        assert cold.simulated_cells == len(quick_spec())

        warm = SweepEngine(cache=ResultCache(tmp_path))
        warm_cells = warm.run_spec(quick_spec())
        assert warm.simulated_cells == 0
        assert warm.cache.hits == len(quick_spec())
        assert warm_cells == cold_cells

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        SweepEngine(workers=4, cache=ResultCache(tmp_path)).run_spec(quick_spec())
        warm = SweepEngine(workers=1, cache=ResultCache(tmp_path))
        warm.run_spec(quick_spec())
        assert warm.simulated_cells == 0

    def test_key_changes_with_config(self):
        base = RunRequest("gzip", ISA, WatchdogConfig.isa_assisted_uaf(),
                          instructions=1200, seed=7)
        assert request_fingerprint(base) == request_fingerprint(base)
        for variant in (
                RunRequest("gzip", ISA, WatchdogConfig.conservative_uaf(),
                           instructions=1200, seed=7),
                RunRequest("gzip", ISA, WatchdogConfig.isa_assisted_uaf(),
                           instructions=1300, seed=7),
                RunRequest("gzip", ISA, WatchdogConfig.isa_assisted_uaf(),
                           instructions=1200, seed=8),
                RunRequest("mcf", ISA, WatchdogConfig.isa_assisted_uaf(),
                           instructions=1200, seed=7),
        ):
            assert request_fingerprint(variant) != request_fingerprint(base)

    def test_key_ignores_cosmetic_label(self):
        config = WatchdogConfig.isa_assisted_uaf()
        a = RunRequest("gzip", "label-a", config, instructions=1200, seed=7)
        b = RunRequest("gzip", "label-b", config, instructions=1200, seed=7)
        assert request_fingerprint(a) == request_fingerprint(b)

    def test_config_change_invalidates_cached_cell(self, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path))
        engine.cell(quick_request("wd"))
        assert engine.simulated_cells == 1

        changed = SweepEngine(cache=ResultCache(tmp_path))
        changed.cell(quick_request("wd", WatchdogConfig.no_lock_cache()))
        assert changed.simulated_cells == 1  # miss: different configuration

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = RunRequest("gzip", ISA, WatchdogConfig.isa_assisted_uaf(),
                             instructions=1200, seed=7)
        key = cache.key(request)
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.load(key) is None

    def test_incomplete_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = RunRequest("gzip", ISA, WatchdogConfig.isa_assisted_uaf(),
                             instructions=1200, seed=7)
        key = cache.key(request)
        # Valid JSON, but missing the stat fields: must re-simulate, not
        # load as a zero-cycle cell.
        (tmp_path / f"{key}.json").write_text(
            json.dumps({"benchmark": "gzip", "configuration": ISA}))
        assert cache.load(key) is None


class TestCellResultParity:
    def test_derived_stats_match_outcome_objects(self):
        """CellResult carries every counter of the live stat objects.

        The figure formulas are defined once, on the cell; these assertions
        pin the counters they read to their sources (InjectionStats,
        PointerIdStats, PageAccountant) so the two cannot drift silently.
        """
        from repro.core.uop_injection import STAT_FIELDS
        from repro.sim.simulator import Simulator

        outcome = Simulator().run_bundle(
            TraceBundle.generate("gzip", seed=7, instructions=1200),
            WatchdogConfig.isa_assisted_uaf())
        cell = CellResult.from_outcome(outcome, label=ISA)
        for name in STAT_FIELDS:
            assert getattr(cell, name) == getattr(outcome.injection, name)
        pointer, pages = outcome.pointer_stats, outcome.pages
        assert (cell.memory_ops, cell.pointer_ops) == \
            (pointer.memory_ops, pointer.pointer_ops)
        assert (cell.data_words, cell.shadow_words) == \
            (pages.data_word_count, pages.shadow_word_count)
        assert (cell.data_pages, cell.shadow_pages) == \
            (pages.data_page_count, pages.shadow_page_count)
        assert cell.cycles == outcome.timing.cycles
        # Every figure formula reads something non-trivial here.
        assert 0 < cell.pointer_fraction < 1
        assert cell.uop_overhead_fraction() > 0
        assert cell.word_overhead() > 0 and cell.page_overhead() > 0


class TestJsonRoundTrips:
    def test_cell_result_roundtrip(self):
        engine = SweepEngine()
        cell = engine.cell(RunRequest("gzip", ISA,
                                      WatchdogConfig.isa_assisted_uaf(),
                                      instructions=1200, seed=7))
        assert cell.cycles > 0 and cell.pointer_fraction > 0
        restored = CellResult.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert restored == cell

    def test_experiment_result_roundtrip(self):
        result = ExperimentResult(name="fig7")
        result.add_value(ISA, "gzip", 12.5)
        result.add_summary("geomean", 11.0)
        result.notes.append("paper: 15%")
        assert json.loads(json.dumps(result.to_dict())) == {
            "name": "fig7", "series": {ISA: {"gzip": 12.5}},
            "summary": {"geomean": 11.0}, "notes": ["paper: 15%"]}

    def test_from_dict_ignores_unknown_fields(self):
        cell = CellResult(benchmark="gzip", configuration=ISA, cycles=10)
        data = cell.to_dict()
        data["added_in_future_schema"] = 1
        assert CellResult.from_dict(data) == cell
