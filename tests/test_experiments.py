"""Tests for the registered experiments and their context (reduced scale)."""

import math

import pytest

from repro.core.config import WatchdogConfig
from repro.experiments import (
    run_experiments,
    sec92_juliet,
    table1_comparison,
    table2_config,
)
from repro.experiments.common import ExperimentContext, ExperimentSettings
from repro.sim.engine import SweepEngine
from repro.sim.results import CellResult
from repro.sim.spec import BASELINE_LABEL, RunRequest

#: A deliberately small sweep so the whole experiment layer is exercised in
#: seconds; ``TestDefaultScaleShapes`` in ``tests/test_experiment_registry.py``
#: runs the registry at the default scale.
QUICK = ExperimentSettings.quick(benchmarks=("gzip", "mcf", "lbm"), instructions=1500)

#: The single-core grid experiments, resolved as one merged batch.
GRID_EXPERIMENTS = ("fig5", "fig7", "fig8", "fig9", "fig10", "fig11",
                    "ablations")


@pytest.fixture(scope="module")
def engine():
    return SweepEngine()


@pytest.fixture(scope="module")
def results(engine):
    suite = run_experiments(GRID_EXPERIMENTS, settings=QUICK, engine=engine)
    return {report.name: report.result for report in suite.reports}


class TestTableExperiments:
    def test_table1_matches_paper(self):
        result = table1_comparison.run()
        assert result.summary["mismatches_vs_paper"] == 0
        assert "Watchdog" in table1_comparison.format_table()

    def test_table2_matches_paper(self):
        result = table2_config.run()
        assert result.summary["mismatches_vs_paper"] == 0
        assert "ROB" in table2_config.format_table()


class TestFigureExperiments:
    def test_fig5_conservative_exceeds_isa(self, results):
        result = results["fig5"]
        assert result.summary["conservative_avg_percent"] > \
            result.summary["isa_assisted_avg_percent"]
        assert set(result.series) == {"conservative", "isa-assisted"}

    def test_fig7_overheads_positive_and_ordered(self, results):
        result = results["fig7"]
        conservative = result.summary["conservative_geomean_percent"]
        isa = result.summary["isa-assisted_geomean_percent"]
        assert conservative > 0 and isa > 0
        assert conservative >= isa * 0.9   # conservative should not be cheaper

    def test_fig7_always_measures_the_ideal_shadow_ablation(self, results):
        result = results["fig7"]
        assert set(result.series) == {"conservative", "isa-assisted",
                                      "ideal-shadow"}
        for series in result.series.values():
            assert list(series) == list(QUICK.benchmarks)
            assert all(math.isfinite(value) for value in series.values())
        assert math.isfinite(result.summary["ideal-shadow_geomean_percent"])

    def test_fig8_breakdown_sums_to_total(self, results):
        result = results["fig8"]
        for benchmark in result.series["total"]:
            total = result.series["total"][benchmark]
            parts = sum(result.series[s][benchmark]
                        for s in ("checks", "pointer_loads", "pointer_stores", "other"))
            assert total == pytest.approx(parts, rel=1e-6)
        assert result.summary["checks_avg_percent"] > \
            result.summary["pointer_loads_avg_percent"]

    def test_fig9_lock_cache_helps(self, results):
        result = results["fig9"]
        assert result.summary["without-lock-cache_geomean_percent"] > \
            result.summary["with-lock-cache_geomean_percent"]

    def test_fig10_pages_exceed_words(self, results):
        result = results["fig10"]
        assert result.summary["pages_geomean_percent"] >= \
            result.summary["words_geomean_percent"] > 0

    def test_fig11_bounds_ordering(self, results):
        result = results["fig11"]
        assert result.summary["bounds_two_uop_geomean_percent"] > \
            result.summary["watchdog_geomean_percent"]
        assert result.summary["bounds_fused_geomean_percent"] >= \
            result.summary["watchdog_geomean_percent"] * 0.9

    def test_ablations_include_copy_elimination(self, results):
        result = results["ablations"]
        assert "no-copy-elimination_geomean_percent" in result.summary

    def test_sec92_juliet_small_subset(self):
        result = sec92_juliet.run(case_count=30, benign_count=15)
        assert result.summary["detected"] == 30
        assert result.summary["false_positives"] == 0


class TestSweepInfrastructure:
    def test_resolved_cells_are_memoized(self, engine, results):
        simulated = engine.simulated_cells
        request = RunRequest("gzip", "isa-assisted",
                             WatchdogConfig.isa_assisted_uaf(),
                             instructions=QUICK.instructions, seed=QUICK.seed)
        first = engine.run_requests([request])[request.key]
        assert engine.run_requests([request])[request.key] is first
        # The merged run already resolved it: no lookup simulates again.
        assert engine.simulated_cells == simulated

    def test_extraction_never_goes_back_to_the_engine(self, engine, results,
                                                      monkeypatch):
        resolve = engine.run_specs

        def resolve_then_seal(specs):
            grids = resolve(specs)

            def sealed(requests):
                raise AssertionError("an extractor asked the engine for cells")

            # engine.cell resolves through run_requests too.
            monkeypatch.setattr(engine, "run_requests", sealed)
            return grids

        monkeypatch.setattr(engine, "run_specs", resolve_then_seal)
        suite = run_experiments(GRID_EXPERIMENTS, settings=QUICK,
                                engine=engine)
        for report in suite.reports:
            assert report.result.summary == results[report.name].summary

    def test_quick_settings(self):
        settings = ExperimentSettings.quick()
        assert len(settings.benchmarks) < 20


class TestExperimentContext:
    SETTINGS = ExperimentSettings.quick(benchmarks=("mcf", "gzip", "lbm"))

    @staticmethod
    def _cell(benchmark, label, cycles):
        return CellResult(benchmark=benchmark, configuration=label,
                          cycles=cycles)

    def _cells(self):
        cells = {}
        for benchmark, base, configured in (("gzip", 200, 230),
                                            ("mcf", 100, 110),
                                            ("lbm", 400, 500)):
            cells[benchmark, BASELINE_LABEL] = self._cell(
                benchmark, BASELINE_LABEL, base)
            cells[benchmark, "wd"] = self._cell(benchmark, "wd", configured)
        return cells

    def test_overheads_follow_settings_order(self):
        context = ExperimentContext(settings=self.SETTINGS, cells=self._cells())
        overheads = context.overheads("wd")
        assert list(overheads) == ["mcf", "gzip", "lbm"]
        assert overheads == pytest.approx(
            {"mcf": 0.10, "gzip": 0.15, "lbm": 0.25})

    def test_failed_cells_poison_only_their_benchmark(self):
        cells = self._cells()
        cells["gzip", "wd"] = CellResult.failed_cell("gzip", "wd")
        cells["lbm", BASELINE_LABEL] = CellResult.failed_cell(
            "lbm", BASELINE_LABEL)
        overheads = ExperimentContext(settings=self.SETTINGS,
                                      cells=cells).overheads("wd")
        assert overheads["mcf"] == pytest.approx(0.10)
        assert math.isnan(overheads["gzip"])
        assert math.isnan(overheads["lbm"])
