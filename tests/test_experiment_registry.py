"""Tests for the declarative experiment registry and its generic runner.

Covers the four guarantees the registry makes:

* **merge**: ``repro run --all`` resolves every requested grid in one engine
  batch, simulating each distinct (benchmark, configuration) cell exactly
  once (asserted via the engine's batch/cell counters),
* **split**: the merged super-spec run is cell-for-cell identical to running
  each experiment standalone,
* **shape**: at the default 20 × 8,000 scale every paper check passes and
  each figure keeps the orderings the paper reports,
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
from repro.sim.results import ExperimentResult, MetricCheck
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
        data = json.loads(json.dumps(suite.to_dict()))
        assert data["ok"] == suite.ok
        assert [entry["name"] for entry in data["experiments"]] == \
            [r.name for r in suite.reports]
        assert data["experiments"][0]["result"]["summary"] == \
            suite.reports[0].result.summary
        assert data["experiments"][0]["checks"] == \
            [c.to_dict() for c in suite.reports[0].checks]


class TestDefaultScaleShapes:
    """The whole registry at its default scale (20 benchmarks × 8,000
    instructions): every paper check passes, and the figures keep the shape
    the paper describes.

    Only relations that no tolerance band implies are asserted here; a
    value inside its band (a positive geomean, an upper bound, Juliet's
    exact counts, Table 1's and Table 2's zero mismatches) is already part
    of ``suite.ok``.
    """

    @pytest.fixture(scope="class")
    def suite(self):
        return run_experiments(list(REGISTRY), settings=ExperimentSettings())

    @pytest.fixture(scope="class")
    def results(self, suite):
        return {report.name: report.result for report in suite.reports}

    def test_every_paper_check_passes(self, suite):
        failures = [f"{report.name}: {check.describe()}"
                    for report in suite.reports
                    for check in report.checks if not check.ok]
        assert suite.ok, "\n".join(failures)

    def test_fig5_pointer_dense_codes_classify_more_accesses(self, results):
        result = results["fig5"]
        assert result.summary["conservative_avg_percent"] > \
            result.summary["isa_assisted_avg_percent"]
        assert result.series["isa-assisted"]["mcf"] > \
            result.series["isa-assisted"]["lbm"]
        assert result.series["conservative"]["gcc"] > \
            result.series["conservative"]["milc"]

    def test_fig7_identification_and_ideal_shadow_order(self, results):
        summary = results["fig7"].summary
        assert summary["conservative_geomean_percent"] > \
            summary["isa-assisted_geomean_percent"] > \
            summary["ideal-shadow_geomean_percent"]

    def test_fig8_checks_dominate_and_segments_sum_to_total(self, results):
        summary = results["fig8"].summary
        total = summary["total_avg_percent"]
        checks = summary["checks_avg_percent"]
        loads = summary["pointer_loads_avg_percent"]
        stores = summary["pointer_stores_avg_percent"]
        other = summary["other_avg_percent"]
        assert checks > other > loads > stores
        assert 30.0 <= total <= 60.0
        assert 20.0 <= checks <= 40.0
        assert abs(total - (checks + loads + stores + other)) < 1.0

    def test_fig9_lock_cache_saves_several_points(self, results):
        summary = results["fig9"].summary
        assert summary["without-lock-cache_geomean_percent"] - \
            summary["with-lock-cache_geomean_percent"] >= 3.0
        assert summary["benchmarks_below_1_mpki"] >= 15

    def test_fig10_pages_exceed_words(self, results):
        result = results["fig10"]
        assert result.summary["pages_geomean_percent"] > \
            result.summary["words_geomean_percent"]
        assert result.series["words"]["mcf"] > result.series["words"]["lbm"]

    def test_fig11_fused_bounds_cost_no_more_than_two_uops(self, results):
        summary = results["fig11"].summary
        watchdog = summary["watchdog_geomean_percent"]
        fused = summary["bounds_fused_geomean_percent"]
        two_uops = summary["bounds_two_uop_geomean_percent"]
        assert watchdog < two_uops
        assert fused <= two_uops
        assert fused >= watchdog * 0.95

    def test_ablations_ideal_shadow_and_copy_elimination(self, results):
        summary = results["ablations"].summary
        isa = summary["isa-assisted_geomean_percent"]
        assert summary["ideal-shadow_geomean_percent"] < isa
        assert summary["no-copy-elimination_geomean_percent"] >= isa * 0.95

    def test_juliet_misses_nothing(self, results):
        assert results["juliet"].summary["missed"] == 0


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
                                        ["--figure", "fig7"],
                                        ["--no-timecore"]],
                             ids=["resume", "journal", "figure", "no-timecore"])
    def test_retired_run_options_are_usage_errors(self, option, capsys):
        # The run journal, the per-figure entry and the timing-kernel flag
        # (REPRO_TIMECORE=0 is the one kill switch) are gone; a stale
        # invocation must fail loudly rather than run something else.
        with pytest.raises(SystemExit) as stopped:
            self._cli(["run", "fig7"] + option)
        assert stopped.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--quick"],
                                        ["--max-regression", "0.3"],
                                        ["--allow-degraded"]],
                             ids=["quick", "max-regression",
                                  "allow-degraded"])
    def test_retired_bench_options_are_usage_errors(self, option, capsys,
                                                    monkeypatch):
        # The bench has one scale, the tolerance is a constant and a
        # degradation always fails the bench; argparse refuses each flag
        # before any cell runs (with run_bench stubbed out, an accepted flag
        # fails fast instead).
        from repro.sim import bench

        monkeypatch.setattr(bench, "run_bench", None)
        with pytest.raises(SystemExit) as stopped:
            self._cli(["bench"] + option)
        assert stopped.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("degradations, code", [
        ([], 0),
        ([{"kind": "kernel-unavailable", "subject": "timecore",
           "detail": "cc exited 1"}], 1)], ids=["clean", "degraded"])
    def test_bench_writes_its_record_then_fails_on_a_degradation(
            self, degradations, code, tmp_path, monkeypatch, capsys):
        from repro.sim import bench

        record = {"revision": "test", "kernels": {},
                  "degradations": degradations}
        monkeypatch.setattr(bench, "run_bench", lambda seed: record)
        output = tmp_path / "record.json"
        assert self._cli(["bench", "--output", str(output)]) == code
        assert json.loads(output.read_text())["degradations"] == degradations
        assert ("unexpected degradation" in capsys.readouterr().err) == \
            bool(degradations)

    @pytest.mark.parametrize("count", ["-5", "0"])
    def test_run_rejects_a_non_positive_instruction_count(self, count, capsys,
                                                          monkeypatch):
        # Refused when the settings are built, before any cell runs (an
        # accepted count would call the stubbed-out runner and fail).
        from repro import cli

        monkeypatch.setattr(cli, "run_experiments", None)
        assert self._cli(["run", "fig7", "-b", "gzip", "-n", count,
                          "--no-cache"]) == 2
        assert f"invalid settings: instructions must be >= 1, got {count}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_run_rejects_a_worker_count_below_one(self, workers, capsys,
                                                  monkeypatch, tmp_path):
        # Refused before any cell runs (the runner is stubbed out) and
        # before the cache directory is made.
        from repro import cli

        monkeypatch.setattr(cli, "run_experiments", None)
        cache_dir = tmp_path / "cache"
        assert self._cli(["run", "fig7", "-b", "gzip", "-n", "100",
                          "--workers", workers,
                          "--cache-dir", str(cache_dir)]) == 2
        assert f"invalid --workers: workers must be >= 1, got {workers}" \
            in capsys.readouterr().err
        assert not cache_dir.exists()

    @pytest.mark.parametrize("horizon", [[], ["-n", "200000"]],
                             ids=["default-horizon", "sampled-horizon"])
    def test_run_rejects_a_mix_under_a_sampling_schedule(
            self, horizon, capsys, monkeypatch, tmp_path):
        # Only a cell refuses the combination; it is refused as a usage
        # error before any cell runs (the runner is stubbed out) and before
        # the cache directory is made.
        from repro import cli

        monkeypatch.setattr(cli, "run_experiments", None)
        cache_dir = tmp_path / "cache"
        assert self._cli(["run", "fig7", "-b", "mix1", "--sampling", "quick",
                          "--cache-dir", str(cache_dir)] + horizon) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid settings: ")
        assert "multi-core mix" in err[0]
        assert not cache_dir.exists()

    @pytest.mark.parametrize("argv", [["mix_overhead", "-b", "mix1"],
                                      ["--all", "--quick"]],
                             ids=["mix_overhead", "all-quick"])
    def test_a_schedule_only_mixes_would_meet_is_accepted(
            self, argv, monkeypatch):
        # mix_overhead drops the schedule from its mix cells, so these
        # reach the runner.
        from repro import cli

        reached = []
        monkeypatch.setattr(cli, "run_experiments",
                            lambda names, settings, engine:
                            reached.append(names) or 1 / 0)
        with pytest.raises(ZeroDivisionError):
            self._cli(["run", *argv, "--sampling", "quick", "--no-cache"])
        assert len(reached) == 1

    @pytest.mark.parametrize("content", [
        None, "{not json", "[]", '{"sampled_uops_per_sec": 30000}',
        '{"uops_per_sec": "fast"}',
        '{"uops_per_sec": 40000, "one_b_peak_rss_mb": null}'],
        ids=["missing", "malformed", "not-an-object", "no-matrix-floor",
             "non-numeric-floor", "null-ceiling"])
    def test_bench_refuses_an_unusable_baseline_before_any_cell(
            self, content, tmp_path, monkeypatch, capsys):
        from repro.sim import bench

        calls = []
        monkeypatch.setattr(bench, "run_bench", lambda seed: calls.append(
            seed) or {"revision": "test", "kernels": {}, "degradations": []})
        baseline = tmp_path / "baseline.json"
        if content is not None:
            baseline.write_text(content)
        output = tmp_path / "record.json"
        assert self._cli(["bench", "--check", str(baseline),
                          "--output", str(output)]) == 2
        assert "cannot read baseline" in capsys.readouterr().err
        assert calls == [] and not output.exists()

    def test_run_rejects_a_negative_retry_count(self, capsys):
        assert self._cli(["run", "fig7", "--retries", "-1"]) == 2
        assert "invalid resilience settings" in capsys.readouterr().err

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
        assert data == {"metric": "m", "expected": 10.0, "tolerance": 2.0,
                        "measured": 9.0, "deviation": -1.0, "ok": True}
