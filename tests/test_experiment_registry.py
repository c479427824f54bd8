"""Tests for the declarative experiment registry and its generic runner.

Covers the three guarantees the registry refactor makes:

* **merge**: ``repro run --all`` resolves every requested grid in one engine
  batch, simulating each distinct (benchmark, configuration) cell exactly
  once (asserted via the engine's batch/cell counters),
* **split**: the merged super-spec run is cell-for-cell identical to running
  each experiment standalone,
* **golden**: every registered experiment, run under the quick §9.1 sampling
  schedule, reproduces pinned summary metrics exactly — the end-to-end
  regression net over workload generation, sampling segmentation, the
  compiled pipeline and metric extraction.
"""

import json

import pytest

from repro.experiments import REGISTRY, get_definition, run_experiments
from repro.experiments.common import ExperimentDefinition, ExperimentSettings
from repro.sim.cache import ResultCache
from repro.sim.engine import SweepEngine
from repro.sim.results import ExperimentResult, MetricCheck, SuiteReport
from repro.sim.sampling import SamplingConfig
from repro.sim.spec import MergedGrid, request_content_key

#: Tiny grid shared by the merge/split tests: two benchmarks, short traces.
TINY = ExperimentSettings.quick(benchmarks=("gzip", "mcf"), instructions=1500)

GRID_EXPERIMENTS = [name for name, d in REGISTRY.items() if d.has_grid]
STANDALONE = [name for name, d in REGISTRY.items() if not d.has_grid]


class TestRegistry:
    def test_every_experiment_is_registered(self):
        assert set(REGISTRY) == {"fig5", "fig7", "fig8", "fig9", "fig10",
                                 "fig11", "mix_overhead", "ablations",
                                 "table1", "table2", "juliet"}
        assert set(GRID_EXPERIMENTS) == {"fig5", "fig7", "fig8", "fig9",
                                         "fig10", "fig11", "mix_overhead",
                                         "ablations"}

    def test_definitions_declare_expectations(self):
        for name, definition in REGISTRY.items():
            assert definition.name == name
            assert definition.description
            if name == "mix_overhead":
                # Extends the paper (whose evaluation is single-core)
                # rather than reproducing a figure: no expected values by
                # design, pinned instead by tests/test_multicore.py.
                assert not definition.expected
                continue
            assert definition.expected, f"{name} declares no expected values"

    def test_get_definition_rejects_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_definition("fig99")

    def test_evaluate_flags_missing_metric(self):
        definition = REGISTRY["fig7"]
        checks = definition.evaluate(ExperimentResult(name="empty"))
        assert checks and all(not check.ok for check in checks)
        assert all(check.measured is None for check in checks)


class TestMergedSuite:
    @pytest.fixture(scope="class")
    def suite_and_engine(self):
        engine = SweepEngine()
        suite = run_experiments(list(REGISTRY), settings=TINY, engine=engine)
        return suite, engine

    def test_all_experiments_resolve_in_one_simulation_batch(
            self, suite_and_engine):
        suite, engine = suite_and_engine
        merged = MergedGrid.merge([REGISTRY[name].build_spec(TINY)
                                   for name in GRID_EXPERIMENTS])
        assert engine.simulation_batches == 1
        # Each distinct cell simulated exactly once — and the merge genuinely
        # deduplicates (the figures share the baseline and ISA-assisted runs).
        assert engine.simulated_cells == len(merged)
        assert len(merged) < merged.total_grid_cells()
        assert suite.engine["merged_unique_cells"] == len(merged)
        assert suite.engine["grid_cells_total"] == merged.total_grid_cells()

    def test_standalone_experiments_never_reach_the_engine(self):
        engine = SweepEngine()
        suite = run_experiments(STANDALONE, settings=TINY, engine=engine)
        assert [report.name for report in suite.reports] == STANDALONE
        assert engine.simulation_batches == 0
        assert suite.engine["grid_cells_total"] == 0
        assert suite.engine["simulated_cells"] == 0

    def test_merged_results_identical_to_standalone_runs(
            self, suite_and_engine):
        suite, _ = suite_and_engine
        by_name = {report.name: report for report in suite.reports}
        for name in GRID_EXPERIMENTS:
            standalone = run_experiments([name], settings=TINY).reports[0].result
            merged = by_name[name].result
            assert merged.series == standalone.series, name
            assert merged.summary == standalone.summary, name

    def test_split_is_cell_for_cell_identical_to_per_spec_runs(self):
        specs = [REGISTRY[name].build_spec(TINY) for name in GRID_EXPERIMENTS]
        merged = MergedGrid.merge(specs)
        engine = SweepEngine()
        grids = merged.split(engine.run_requests(merged.requests()))
        for spec in specs:
            standalone = SweepEngine().run_spec(spec)
            assert grids[spec.name] == standalone, spec.name

    def test_merged_requests_are_content_unique(self):
        merged = MergedGrid.merge([REGISTRY[name].build_spec(TINY)
                                   for name in GRID_EXPERIMENTS])
        keys = [request_content_key(r) for r in merged.requests()]
        assert len(keys) == len(set(keys))

    def test_merge_rejects_label_bound_to_different_configs(self):
        """Same label + different config across specs must fail loudly.

        The merged resolution is keyed by (benchmark, label); a collision
        would silently serve one spec the other's cells, so the merge
        refuses it up front.
        """
        from repro.core.config import WatchdogConfig
        from repro.errors import ConfigurationError
        from repro.sim.spec import ExperimentSpec

        spec_a = ExperimentSpec.build(
            "a", {"watchdog": WatchdogConfig.isa_assisted_uaf()},
            settings=TINY, include_baseline=False)
        spec_b = ExperimentSpec.build(
            "b", {"watchdog": WatchdogConfig.conservative_uaf()},
            settings=TINY, include_baseline=False)
        with pytest.raises(ConfigurationError, match="different config"):
            MergedGrid.merge([spec_a, spec_b]).requests()


class TestQuickTierChecks:
    def test_quick_tier_passes_all_paper_checks(self):
        """The CI gate: `repro run --all --quick` must stay inside tolerance."""
        suite = run_experiments(list(REGISTRY),
                                settings=ExperimentSettings.quick())
        failures = [f"{report.name}: {check.describe()}"
                    for report in suite.reports
                    for check in report.checks if not check.ok]
        assert suite.ok, "\n".join(failures)

    def test_suite_report_round_trips_through_json(self):
        suite = run_experiments(["fig8", "table2"], settings=TINY)
        restored = SuiteReport.from_dict(
            json.loads(json.dumps(suite.to_dict())))
        assert restored.ok == suite.ok
        assert [r.name for r in restored.reports] == \
            [r.name for r in suite.reports]
        assert restored.reports[0].result.summary == \
            suite.reports[0].result.summary
        assert [c.to_dict() for c in restored.reports[0].checks] == \
            [c.to_dict() for c in suite.reports[0].checks]


#: Summary metrics of every registered experiment under the quick §9.1
#: schedule (two benchmarks, 120k-instruction horizon: one genuinely sampled
#: measure window per period).  Pinned from the implementation at the time
#: the registry landed; any drift in workload generation, sampling
#: segmentation, the timing model or metric extraction shows up here.
GOLDEN_SETTINGS = dict(benchmarks=("gzip", "mcf"), instructions=120_000)
GOLDEN = {
    "fig5": {
        "conservative_avg_percent": 38.076848818247434,
        "isa_assisted_avg_percent": 24.54920528365329,
    },
    "fig7": {
        "conservative_geomean_percent": 15.0630267901799,
        "isa-assisted_geomean_percent": 10.778032487658894,
        "ideal-shadow_geomean_percent": 2.5895990092561716,
    },
    "fig8": {
        "total_avg_percent": 44.40331204954086,
        "checks_avg_percent": 29.029529724211834,
        "pointer_loads_avg_percent": 5.2859321577317395,
        "pointer_stores_avg_percent": 2.0883882540180125,
        "other_avg_percent": 7.99946191357927,
    },
    "fig9": {
        "with-lock-cache_geomean_percent": 10.778032487658894,
        "without-lock-cache_geomean_percent": 21.37715267551963,
        "benchmarks_below_1_mpki": 1.0,
    },
    "fig10": {
        "words_geomean_percent": 52.58244673131773,
        "pages_geomean_percent": 110.79756185181768,
    },
    "fig11": {
        "watchdog_geomean_percent": 10.778032487658894,
        "bounds_fused_geomean_percent": 24.480823233970007,
        "bounds_two_uop_geomean_percent": 30.263454651536215,
    },
    "ablations": {
        "isa-assisted_geomean_percent": 10.778032487658894,
        "ideal-shadow_geomean_percent": 2.5895990092561716,
        "no-copy-elimination_geomean_percent": 15.19177375215277,
    },
    "table1": {
        "approaches": 11.0,
        "mismatches_vs_paper": 0.0,
    },
    "table2": {
        "mismatches_vs_paper": 0.0,
    },
    "juliet": {
        "cases": 291.0,
        "detected": 291.0,
        "missed": 0.0,
        "false_positives": 0.0,
    },
}


class TestGoldenQuickSampling:
    @pytest.fixture(scope="class")
    def sampled_suite(self):
        settings = ExperimentSettings(sampling=SamplingConfig.quick(),
                                      **GOLDEN_SETTINGS)
        # mix_overhead is excluded: mixes measure their full horizon
        # unsampled, so at the 120k golden horizon the full mix1-mix7
        # family is a multi-minute run.  The mix family has its own
        # quick-scale golden pin in tests/test_multicore.py.
        return run_experiments([name for name in REGISTRY
                                if name != "mix_overhead"],
                               settings=settings)

    def test_registry_names_match_golden(self, sampled_suite):
        assert {r.name for r in sampled_suite.reports} == set(GOLDEN)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_sampled_metrics_match_pinned_values(self, sampled_suite, name):
        report = next(r for r in sampled_suite.reports if r.name == name)
        assert report.result.summary == pytest.approx(GOLDEN[name], rel=1e-9)


class TestCliRun:
    def _cli(self, argv):
        from repro import cli

        return cli.main(argv)

    def test_run_writes_report_and_exits_zero(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        cache_dir = tmp_path / "cache"
        rc = self._cli(["run", "fig8", "table2", "--quick", "--no-cache",
                        "--cache-dir", str(cache_dir),
                        "--report", str(report_path)])
        assert rc == 0
        # --no-cache writes nothing under the cache directory.
        assert not cache_dir.exists()
        data = json.loads(report_path.read_text())
        assert data["ok"] is True
        assert data["engine"]["simulation_batches"] == 1
        names = [entry["name"] for entry in data["experiments"]]
        assert names == ["fig8", "table2"]
        for entry in data["experiments"]:
            for check in entry["checks"]:
                assert check["ok"] is True
                assert "deviation" in check
        out = capsys.readouterr().out
        assert "[check]" in out and "[engine]" in out

    #: A small grid run of the cache tests below.
    SMALL_RUN = ["run", "fig8", "--benchmarks", "gzip,mcf",
                 "--instructions", "1500", "--no-check"]

    def test_warm_rerun_is_served_by_the_cache(self, tmp_path, capsys):
        argv = self.SMALL_RUN + ["--cache-dir", str(tmp_path / "cache")]
        assert self._cli(argv + ["--report", str(tmp_path / "cold.json")]) == 0
        capsys.readouterr()
        assert self._cli(argv + ["--report", str(tmp_path / "warm.json")]) == 0
        assert "[engine] simulated 0 cells" in capsys.readouterr().out
        cold, warm = (json.loads((tmp_path / f"{run}.json").read_text())
                      for run in ("cold", "warm"))
        unique = cold["engine"]["merged_unique_cells"]
        assert cold["engine"]["simulated_cells"] == unique
        assert warm["engine"]["simulated_cells"] == 0
        assert warm["engine"]["cache_hits"] == unique
        assert [entry["result"] for entry in warm["experiments"]] \
            == [entry["result"] for entry in cold["experiments"]]

    def test_no_cache_neither_reads_nor_writes_the_cache(self, tmp_path,
                                                         capsys):
        cache_dir = tmp_path / "cache"
        argv = self.SMALL_RUN + ["--cache-dir", str(cache_dir)]
        assert self._cli(argv) == 0
        stored = {path.name: path.stat().st_mtime_ns
                  for path in cache_dir.iterdir()}
        capsys.readouterr()
        assert self._cli(argv + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        # Every cell simulated again although the cache holds all of them.
        assert f"[engine] simulated {len(ResultCache(cache_dir))} cells" in out
        assert "cache disabled" in out
        assert {path.name: path.stat().st_mtime_ns
                for path in cache_dir.iterdir()} == stored

    @pytest.mark.parametrize("option", [["--resume"],
                                        ["--journal", "run.jsonl"],
                                        ["--figure", "fig7"]],
                             ids=["resume", "journal", "figure"])
    def test_retired_run_options_are_usage_errors(self, option, capsys):
        # The run journal and the per-figure entry are gone; a stale
        # invocation must fail loudly rather than run something else.
        with pytest.raises(SystemExit) as stopped:
            self._cli(["run", "fig7"] + option)
        assert stopped.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_rejects_unknown_experiment(self, capsys):
        rc = self._cli(["run", "fig99"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_deviation_fails_run_unless_no_check(self, tmp_path, monkeypatch,
                                                 capsys):
        broken = ExperimentDefinition(
            name="broken",
            title="broken-experiment",
            description="deliberately impossible expectation",
            extract=lambda context: _constant_result(),
            expected={"value": 1000.0},
            tolerances={"value": 0.1},
        )
        monkeypatch.setitem(REGISTRY, "broken", broken)
        rc = self._cli(["run", "broken", "--quick", "--no-cache"])
        assert rc == 1
        assert "beyond tolerance" in capsys.readouterr().err
        rc = self._cli(["run", "broken", "--quick", "--no-cache",
                        "--no-check"])
        assert rc == 0


def _constant_result() -> ExperimentResult:
    result = ExperimentResult(name="broken-experiment")
    result.add_summary("value", 1.0)
    return result


class TestMetricCheck:
    def test_ok_within_tolerance(self):
        check = MetricCheck(metric="m", expected=10.0, tolerance=2.0,
                            measured=11.5)
        assert check.ok and check.deviation == pytest.approx(1.5)

    def test_fails_beyond_tolerance_and_when_missing(self):
        assert not MetricCheck(metric="m", expected=10.0, tolerance=2.0,
                               measured=12.5).ok
        missing = MetricCheck(metric="m", expected=10.0, tolerance=2.0)
        assert not missing.ok and missing.deviation is None

    def test_round_trip(self):
        check = MetricCheck(metric="m", expected=10.0, tolerance=2.0,
                            measured=9.0)
        data = json.loads(json.dumps(check.to_dict()))
        assert MetricCheck.from_dict(data) == check
        assert data["ok"] is True and data["deviation"] == -1.0
