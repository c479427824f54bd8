"""Resilience-layer tests: fault plans, retries, deadlines, quarantine,
degraded kernels, cache corruption, concurrent writers, and healing a
quarantined run by rerunning it over the result cache.

Every recovery path in the sweep engine is exercised *deterministically*
through :mod:`repro.sim.faults`: a :class:`FaultPlan` names the exact
(subject, attempt) points where workers crash, cells hang, cache entries
corrupt, or kernel self-tests fail, and the tests assert the engine's
contract — every healthy cell completes bit-identically to a fault-free
run, every injected failure surfaces as a structured record, and nothing
else does.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.config import WatchdogConfig
from repro.errors import ConfigurationError
from repro.experiments import REGISTRY, run_experiments
from repro.experiments.common import (
    ExperimentSettings,
    kernel_degradation_events,
)
from repro.native import build
from repro.sim.cache import ResultCache, request_fingerprint
from repro.sim.engine import SweepEngine
from repro.sim.faults import (
    DEFAULT_SLOW_SECONDS,
    FaultPlan,
    FaultSpec,
    InjectedWorkerCrash,
    apply_execution_faults,
)
from repro.sim.results import (
    CellFailure,
    CellResult,
    DegradationEvent,
    SuiteReport,
)
from repro.sim.spec import BASELINE_LABEL, ExperimentSpec, ResiliencePolicy
from repro.sim.stats import geometric_mean_overhead

#: Same scale as test_sweep_engine: two benchmarks, short traces, so every
#: recovery path (including real process pools) runs in a few seconds.
QUICK = ExperimentSettings.quick(benchmarks=("gzip", "mcf"), instructions=1200)
ISA = "isa-assisted"


def quick_spec() -> ExperimentSpec:
    return ExperimentSpec.build("quick", {
        ISA: WatchdogConfig.isa_assisted_uaf(),
        "conservative": WatchdogConfig.conservative_uaf(),
    }, settings=QUICK)


#: Cells per benchmark in the quick grid (baseline + the two configs).
LABELS_PER_BENCHMARK = 3

#: Policies used throughout: never give up / give up immediately.
RETRYING = ResiliencePolicy(retries=2)
NO_RETRY = ResiliencePolicy(retries=0)


@pytest.fixture(scope="module")
def reference_cells():
    """The fault-free serial resolution every recovery test compares against."""
    return SweepEngine().run_spec(quick_spec())


class TestFaultPlan:
    def test_empty_plan(self):
        assert FaultPlan.parse(None).empty
        assert FaultPlan.parse("").empty
        assert FaultPlan.parse("   ").empty
        assert not FaultPlan.parse("crash:gzip").empty

    def test_parse_reads_every_kind_and_separator(self):
        plan = FaultPlan.parse(
            "crash:gzip:0, slow:mcf:*:2.5; corrupt:gzip/baseline "
            "selftest:timecore")
        assert plan.specs == (
            FaultSpec("crash", "gzip", attempt=0),
            FaultSpec("slow", "mcf", attempt=None, seconds=2.5),
            FaultSpec("corrupt", "gzip/baseline"),
            FaultSpec("selftest", "timecore"),
        )

    def test_default_attempt_is_first_try_only(self):
        plan = FaultPlan.parse("crash:gzip")
        assert plan.crashes("gzip", 0)
        assert not plan.crashes("gzip", 1)
        assert not plan.crashes("mcf", 0)

    def test_star_attempt_matches_every_attempt(self):
        plan = FaultPlan.parse("crash:gzip:*")
        assert plan.crashes("gzip", 0) and plan.crashes("gzip", 7)

    def test_slow_seconds_and_default(self):
        assert FaultPlan.parse("slow:mcf:0:2.5").slow_seconds("mcf", 0) == 2.5
        assert FaultPlan.parse("slow:mcf").slow_seconds("mcf", 0) == \
            DEFAULT_SLOW_SECONDS
        assert FaultPlan.parse("slow:mcf").slow_seconds("gzip", 0) is None

    def test_corrupt_matches_benchmark_or_cell(self):
        by_cell = FaultPlan.parse("corrupt:gzip/baseline")
        assert by_cell.corrupts_store("gzip", "baseline")
        assert not by_cell.corrupts_store("gzip", ISA)
        by_benchmark = FaultPlan.parse("corrupt:gzip")
        assert by_benchmark.corrupts_store("gzip", "baseline")
        assert by_benchmark.corrupts_store("gzip", ISA)

    def test_selftest_matches_kernel(self):
        plan = FaultPlan.parse("selftest:timecore")
        assert plan.kernel_selftest_fails("timecore")
        assert not plan.kernel_selftest_fails("ffcore")

    @pytest.mark.parametrize("text", (
        "explode:gzip",          # unknown kind
        "crash",                 # no subject
        "crash::0",              # empty subject
        "crash:gzip:minus",      # non-integer attempt
        "crash:gzip:-1",         # negative attempt
        "crash:gzip:0:5",        # duration on a non-slow fault
        "slow:mcf:0:fast",       # non-numeric duration
        "slow:mcf:0:0",          # non-positive duration
    ))
    def test_malformed_tokens_are_configuration_errors(self, text):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(text)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.from_env().empty
        monkeypatch.setenv("REPRO_FAULTS", "crash:gzip:1")
        assert FaultPlan.from_env().crashes("gzip", 1)

    def test_in_process_crash_raises(self):
        plan = FaultPlan.parse("crash:gzip:0")
        with pytest.raises(InjectedWorkerCrash):
            apply_execution_faults(plan, "gzip", 0)
        apply_execution_faults(plan, "gzip", 1)  # non-matching: no-op
        apply_execution_faults(plan, "mcf", 0)


class TestResiliencePolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(retries=-1)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(deadline_seconds=0)

    def test_environment_does_not_set_the_policy(self, monkeypatch):
        # `repro run --retries/--deadline` are the one way to set it.
        for name, value in (("REPRO_RETRIES", "5"), ("REPRO_DEADLINE", "2.5"),
                            ("REPRO_BACKOFF", "0.25"),
                            ("REPRO_DEGRADE_NATIVE", "0")):
            monkeypatch.setenv(name, value)
        assert SweepEngine().policy == ResiliencePolicy()


class TestSerialCrashRecovery:
    def test_crash_is_retried_bit_identically(self, reference_cells):
        engine = SweepEngine(faults=FaultPlan.parse("crash:gzip:0"),
                             policy=RETRYING)
        assert engine.run_spec(quick_spec()) == reference_cells
        assert not engine.cell_failures
        kinds = [event.kind for event in engine.degradations]
        assert "worker-crash" in kinds
        # The retry ran with the native kernels disabled — golden-equal, so
        # still bit-identical — and said so.
        assert "native-disabled-retry" in kinds


class TestQuarantine:
    def test_exhausted_retries_quarantine_only_that_benchmark(
            self, reference_cells):
        engine = SweepEngine(faults=FaultPlan.parse("crash:gzip:*"),
                             policy=ResiliencePolicy(retries=1))
        cells = engine.run_spec(quick_spec())
        # Every gzip cell failed (after 2 attempts each)...
        assert len(engine.cell_failures) == LABELS_PER_BENCHMARK
        assert all(f.benchmark == "gzip" and f.reason == "worker-crash"
                   and f.attempts == 2 for f in engine.cell_failures)
        for (benchmark, label), cell in cells.items():
            if benchmark == "gzip":
                assert cell.failed and cell.cycles == 0
            else:
                # ...while every mcf cell is bit-identical to fault-free.
                assert cell == reference_cells[(benchmark, label)]

    def test_failed_placeholders_are_never_cached(self, tmp_path,
                                                  reference_cells):
        cache = ResultCache(tmp_path)
        engine = SweepEngine(faults=FaultPlan.parse("crash:gzip:*"),
                             policy=NO_RETRY, cache=cache)
        first = engine.run_spec(quick_spec())
        assert len(engine.cell_failures) == LABELS_PER_BENCHMARK
        assert first[("mcf", ISA)] == reference_cells[("mcf", ISA)]
        # Only mcf's real cells were persisted; rerunning the same grid
        # serves them from the cache and re-simulates exactly the
        # quarantined gzip cells, not an all-zero placeholder.
        assert len(cache) == LABELS_PER_BENCHMARK
        healed = SweepEngine(cache=ResultCache(tmp_path))
        cells = healed.run_spec(quick_spec())
        assert healed.cache.hits == LABELS_PER_BENCHMARK
        assert healed.simulated_cells == LABELS_PER_BENCHMARK
        assert not healed.cell_failures
        assert cells == reference_cells

    def test_failed_cells_poison_overheads_as_nan(self):
        engine = SweepEngine(faults=FaultPlan.parse("crash:gzip:*"),
                             policy=NO_RETRY)
        cells = engine.run_spec(quick_spec())
        overheads = {benchmark: cells[benchmark, ISA].overhead_vs(
                         cells[benchmark, BASELINE_LABEL])
                     for benchmark in QUICK.benchmarks}
        assert math.isnan(overheads["gzip"])
        # The geomean over a poisoned grid is NaN (never a fabricated
        # number), which can only read as DEVIATION in a metric check.
        assert math.isnan(geometric_mean_overhead(list(overheads.values())))
        assert overheads["mcf"] > 0

    def test_quarantined_cells_poison_every_experiment_sharing_them(self):
        # fig9 and fig11 read fig7's ISA-assisted cells under their own
        # labels: the relabelled placeholders must stay failed.
        engine = SweepEngine(faults=FaultPlan.parse("crash:gzip:*"),
                             policy=NO_RETRY)
        names = ["fig7", "fig9", "fig11"]
        suite = run_experiments(names, settings=QUICK, engine=engine)
        assert {failure.benchmark for failure in suite.cell_failures} \
            == {"gzip"}
        for report in suite.reports:
            for label, _ in REGISTRY[report.name].build_spec(QUICK).configs:
                series = report.result.series[label]
                assert math.isnan(series["gzip"]), (report.name, label)
                assert math.isfinite(series["mcf"]), (report.name, label)
            assert report.checks
            assert not any(check.ok for check in report.checks), report.name

    def test_overhead_vs_is_nan_for_placeholders_and_empty_baselines(self):
        healthy = CellResult(benchmark="gzip", configuration=ISA, cycles=115)
        baseline = CellResult(benchmark="gzip", configuration=BASELINE_LABEL,
                              cycles=100)
        failed = CellResult.failed_cell("gzip", ISA)
        assert healthy.overhead_vs(baseline) == pytest.approx(0.15)
        assert math.isnan(failed.overhead_vs(baseline))
        assert math.isnan(healthy.overhead_vs(
            CellResult.failed_cell("gzip", BASELINE_LABEL)))
        assert math.isnan(healthy.overhead_vs(
            CellResult(benchmark="gzip", configuration=BASELINE_LABEL)))


class TestPooledCrashRecovery:
    """Satellite: BrokenProcessPool recovery, asserted bit-identical."""

    def test_worker_killed_mid_suite_recovers_bit_identically(
            self, reference_cells):
        engine = SweepEngine(workers=2,
                             faults=FaultPlan.parse("crash:gzip:0"),
                             policy=RETRYING)
        try:
            cells = engine.run_spec(quick_spec())
        finally:
            engine.close()
        # The injected os._exit broke the pool; the engine rebuilt it and
        # retried — every cell identical to the fault-free serial run.
        assert cells == reference_cells
        assert not engine.cell_failures
        assert engine.pool_rebuilds >= 1
        assert any(event.kind == "worker-crash"
                   for event in engine.degradations)

    def test_pooled_quarantine_completes_other_cells(self, reference_cells):
        engine = SweepEngine(workers=2,
                             faults=FaultPlan.parse("crash:gzip:*"),
                             policy=NO_RETRY)
        try:
            cells = engine.run_spec(quick_spec())
        finally:
            engine.close()
        assert {f.benchmark for f in engine.cell_failures} == {"gzip"}
        for (benchmark, label), cell in cells.items():
            if benchmark != "gzip":
                assert cell == reference_cells[(benchmark, label)]


class TestDeadlines:
    def test_hung_cell_times_out_and_is_quarantined(self, reference_cells):
        engine = SweepEngine(
            workers=2, faults=FaultPlan.parse("slow:gzip:*:30"),
            policy=ResiliencePolicy(retries=0, deadline_seconds=1.0))
        try:
            cells = engine.run_spec(quick_spec())
        finally:
            engine.close()
        assert len(engine.cell_failures) == LABELS_PER_BENCHMARK
        assert all(f.reason == "cell-timeout" for f in engine.cell_failures)
        assert engine.pool_rebuilds >= 1
        for (benchmark, label), cell in cells.items():
            if benchmark != "gzip":
                assert cell == reference_cells[(benchmark, label)]

    def test_timed_out_cell_recovers_on_retry(self, reference_cells):
        engine = SweepEngine(
            workers=2, faults=FaultPlan.parse("slow:gzip:0:30"),
            policy=ResiliencePolicy(retries=1, deadline_seconds=1.0))
        try:
            cells = engine.run_spec(quick_spec())
        finally:
            engine.close()
        assert cells == reference_cells
        assert not engine.cell_failures
        assert any(event.kind == "cell-timeout"
                   for event in engine.degradations)


class TestCacheQuarantine:
    def test_injected_store_corruption_quarantines_and_heals(
            self, tmp_path, reference_cells):
        plan = FaultPlan.parse("corrupt:gzip/baseline")
        cold = SweepEngine(cache=ResultCache(tmp_path, faults=plan))
        cold_cells = cold.run_spec(quick_spec())
        assert cold_cells == reference_cells  # corruption is on-disk only

        warm = SweepEngine(cache=ResultCache(tmp_path))
        warm_cells = warm.run_spec(quick_spec())
        # Exactly the corrupted entry re-simulated; the broken file was
        # renamed aside instead of staying a forever-miss.
        assert warm.simulated_cells == 1
        assert warm_cells == reference_cells
        corpses = list(tmp_path.glob("*.corrupt"))
        assert len(corpses) == 1
        assert any(event.kind == "cache-corrupt"
                   for event in warm.degradations)

        # Third run: the regenerated entry serves; the corpse is inert.
        third = SweepEngine(cache=ResultCache(tmp_path))
        third.run_spec(quick_spec())
        assert third.simulated_cells == 0
        assert not third.degradations

    def test_hand_corrupted_entry_is_quarantined_on_load(self, tmp_path):
        from repro.sim.spec import RunRequest

        cache = ResultCache(tmp_path)
        request = RunRequest("gzip", ISA, WatchdogConfig.isa_assisted_uaf(),
                             instructions=1200, seed=7)
        key = request_fingerprint(request)
        (tmp_path / f"{key}.json").write_text("{not json")
        assert cache.load(key) is None
        assert cache.corruptions == 1
        assert (tmp_path / f"{key}.corrupt").exists()
        assert not (tmp_path / f"{key}.json").exists()
        events = cache.drain_corruption_events()
        assert len(events) == 1 and events[0].kind == "cache-corrupt"
        assert cache.drain_corruption_events() == []

    def test_missing_entry_is_a_plain_miss_not_a_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.corruptions == 0
        assert cache.drain_corruption_events() == []


class TestCliHealing:
    """``repro run`` heals a quarantined run by rerunning the same command."""

    ARGS = ["run", "fig7", "--benchmarks", "gzip,mcf", "--instructions",
            str(QUICK.instructions), "--no-check"]
    #: fig7's cells per benchmark: the baseline and its three configurations.
    FIG7_LABELS = 4

    def test_rerun_simulates_exactly_the_quarantined_cells(
            self, tmp_path, monkeypatch, capsys):
        from repro import cli

        cache_dir = tmp_path / "cache"
        args = self.ARGS + ["--cache-dir", str(cache_dir)]
        # --faults exports its plan through REPRO_FAULTS; setting it here
        # first makes monkeypatch restore the variable afterwards.
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert cli.main(args + ["--faults", "crash:gzip:*",
                                "--retries", "0"]) == 1
        err = capsys.readouterr().err
        failed = [line for line in err.splitlines()
                  if line.startswith("[failed] gzip/")]
        assert len(failed) == self.FIG7_LABELS
        assert "rerun the same command" in err
        # Only mcf's cells completed, so only they were stored.
        assert len(ResultCache(cache_dir)) == self.FIG7_LABELS

        monkeypatch.delenv("REPRO_FAULTS")
        report_path = tmp_path / "report.json"
        assert cli.main(args + ["--report", str(report_path)]) == 0
        engine = json.loads(report_path.read_text())["engine"]
        assert engine["simulated_cells"] == self.FIG7_LABELS
        assert engine["cache_hits"] == self.FIG7_LABELS
        assert engine["cell_failures"] == 0
        assert len(ResultCache(cache_dir)) == 2 * self.FIG7_LABELS


def _hammer_store(payload):
    """Worker for the concurrent-writer stress test (module-level: picklable)."""
    root, key, writes, salt = payload
    cache = ResultCache(root)
    cell = CellResult(benchmark="gzip", configuration="baseline",
                      cycles=4242, total_uops=9999, macro_instructions=salt)
    for _ in range(writes):
        cache.store(key, cell)
    return cache.stores


class TestConcurrentWriters:
    """Satellite: overlapping writers racing the same key stay atomic."""

    def test_overlapping_writers_never_tear_or_collide(self, tmp_path):
        key = "f" * 64
        workers = 4
        writes = 25
        payloads = [(str(tmp_path), key, writes, salt)
                    for salt in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stores = list(pool.map(_hammer_store, payloads))
        assert stores == [writes] * workers
        # Whoever won the last replace, the entry is whole and parseable...
        cell = ResultCache(tmp_path).load(key)
        assert cell is not None
        assert cell.cycles == 4242 and cell.macro_instructions in range(workers)
        # ...and no temp files leaked (collision-free names + cleanup).
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_same_process_temp_names_are_unique(self, tmp_path):
        # The pid alone cannot distinguish two stores from one process; the
        # serial counter must. Two stores of the same key back to back
        # exercise it (a collision would surface as a clobbered rename).
        cache = ResultCache(tmp_path)
        cell = CellResult(benchmark="gzip", configuration="baseline", cycles=1)
        cache.store("a" * 64, cell)
        cache.store("a" * 64, cell)
        assert cache.stores == 2
        assert ResultCache(tmp_path).load("a" * 64) == cell


class TestKernelFaults:
    def test_selftest_fault_refuses_kernel_with_reason(self, monkeypatch):
        from repro.workloads import _ffcore

        monkeypatch.delenv("REPRO_FFCORE", raising=False)
        monkeypatch.setenv("REPRO_FAULTS", "selftest:ffcore")
        build.forget("ffcore")
        build._WARNED.discard("ffcore")
        try:
            with pytest.warns(RuntimeWarning, match="ffcore"):
                assert _ffcore.load() is None
            status = _ffcore.status()
            assert status is not None and status.unexpected
            assert "fault-injected" in status.reason
        finally:
            build.forget("ffcore")

    def test_kill_switch_is_disabled_not_unexpected(self, monkeypatch):
        from repro.workloads import _ffcore

        monkeypatch.setenv("REPRO_FFCORE", "0")
        build.forget("ffcore")
        try:
            assert _ffcore.load() is None
            status = _ffcore.status()
            assert status.disabled and not status.unexpected
            assert "ffcore" not in build.unexpected_failures()
        finally:
            build.forget("ffcore")

    def test_unexpected_failure_surfaces_as_degradation_event(
            self, monkeypatch):
        from repro.native import _timecore

        monkeypatch.delenv("REPRO_TIMECORE", raising=False)
        monkeypatch.setenv("REPRO_FAULTS", "selftest:timecore")
        build.forget("timecore")
        build._WARNED.add("timecore")  # already-warned: keep the test quiet
        try:
            assert _timecore.load() is None
            events = kernel_degradation_events()
            assert any(event.kind == "kernel-unavailable"
                       and event.subject == "timecore"
                       for event in events)
        finally:
            build.forget("timecore")


class TestCombinedPlan:
    """The acceptance shape: several fault kinds in one run, one report."""

    def test_combined_faults_one_run(self, tmp_path, reference_cells):
        plan = FaultPlan.parse("crash:gzip:0,corrupt:mcf/baseline")
        engine = SweepEngine(workers=2, faults=plan, policy=RETRYING,
                             cache=ResultCache(tmp_path, faults=plan))
        try:
            cells = engine.run_spec(quick_spec())
        finally:
            engine.close()
        # Every cell completed bit-identically despite the mid-run crash...
        assert cells == reference_cells
        assert not engine.cell_failures
        assert any(event.kind == "worker-crash"
                   for event in engine.degradations)

        # ...and the injected store corruption surfaces on the next run as
        # exactly one quarantined entry, then heals.
        warm = SweepEngine(cache=ResultCache(tmp_path))
        warm_cells = warm.run_spec(quick_spec())
        assert warm.simulated_cells == 1
        assert warm_cells == reference_cells
        assert len(list(tmp_path.glob("*.corrupt"))) == 1


class TestReportPlumbing:
    def test_degradation_event_round_trip(self):
        event = DegradationEvent(kind="worker-crash", subject="gzip",
                                 attempt=1, detail="worker process died")
        assert json.loads(json.dumps(event.to_dict())) == {
            "kind": "worker-crash", "subject": "gzip", "attempt": 1,
            "detail": "worker process died"}
        assert "gzip" in event.describe()

    def test_cell_failure_round_trip(self):
        failure = CellFailure(benchmark="gzip", label=ISA, attempts=3,
                              reason="cell-timeout", detail="deadline 5s")
        assert json.loads(json.dumps(failure.to_dict())) == {
            "benchmark": "gzip", "label": ISA, "attempts": 3,
            "reason": "cell-timeout", "detail": "deadline 5s"}
        assert "3 attempts" in failure.describe()

    def test_suite_report_carries_resilience_records(self):
        report = SuiteReport(
            degradations=[DegradationEvent(kind="kernel-unavailable",
                                           subject="timecore",
                                           detail="no compiler")],
            cell_failures=[CellFailure(benchmark="gzip", label=ISA,
                                       attempts=2, reason="worker-crash")])
        assert not report.ok  # cell failures fail the suite...
        data = json.loads(json.dumps(report.to_dict()))
        assert data["degradations"] == \
            [event.to_dict() for event in report.degradations]
        assert data["cell_failures"] == \
            [failure.to_dict() for failure in report.cell_failures]
        assert data["ok"] is False

        degraded_only = SuiteReport(
            degradations=[DegradationEvent(kind="cache-corrupt",
                                           subject="x.json")])
        assert degraded_only.ok  # ...degradations alone are advisory

    def test_failed_placeholder_round_trip(self):
        placeholder = CellResult.failed_cell("gzip", ISA)
        assert placeholder.failed
        restored = CellResult.from_dict(
            json.loads(json.dumps(placeholder.to_dict())))
        assert restored == placeholder
        # Pre-v3 entries lack the field; it must default to healthy.
        legacy = {f: v for f, v in placeholder.to_dict().items()
                  if f != "failed"}
        assert not CellResult.from_dict(legacy).failed
