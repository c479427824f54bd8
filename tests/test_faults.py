"""Resilience-layer tests: fault plans, retries, deadlines, quarantine,
degraded kernels, cache corruption, concurrent writers, and journal resume.

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
from repro.experiments.common import (
    ExperimentSettings,
    OverheadSweep,
    kernel_degradation_events,
)
from repro.native import build
from repro.sim.cache import ResultCache, code_fingerprint
from repro.sim.engine import SweepEngine
from repro.sim.faults import (
    DEFAULT_SLOW_SECONDS,
    FaultPlan,
    FaultSpec,
    InjectedWorkerCrash,
    apply_execution_faults,
)
from repro.sim.journal import RunJournal
from repro.sim.results import (
    CellFailure,
    CellResult,
    DegradationEvent,
    SuiteReport,
)
from repro.sim.spec import ExperimentSpec, ResiliencePolicy

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

    def test_parse_round_trips_through_spec_string(self):
        plan = FaultPlan.parse(
            "crash:gzip:0, slow:mcf:*:2.5; corrupt:gzip/baseline "
            "selftest:timecore")
        assert FaultPlan.parse(plan.spec_string()) == plan
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
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(backoff_seconds=-0.1)

    def test_backoff_schedule_is_exponential(self):
        policy = ResiliencePolicy(backoff_seconds=0.1)
        assert policy.backoff_before(0) == 0.0
        assert policy.backoff_before(1) == pytest.approx(0.1)
        assert policy.backoff_before(2) == pytest.approx(0.2)
        assert ResiliencePolicy().backoff_before(3) == 0.0

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_DEADLINE", "2.5")
        monkeypatch.setenv("REPRO_BACKOFF", "0.25")
        monkeypatch.setenv("REPRO_DEGRADE_NATIVE", "0")
        policy = ResiliencePolicy.from_env()
        assert policy.retries == 5
        assert policy.deadline_seconds == 2.5
        assert policy.backoff_seconds == 0.25
        assert policy.degrade_native is False

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "many")
        with pytest.raises(ConfigurationError):
            ResiliencePolicy.from_env()


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

    def test_degrade_native_can_be_disabled(self, reference_cells):
        engine = SweepEngine(
            faults=FaultPlan.parse("crash:gzip:0"),
            policy=ResiliencePolicy(retries=2, degrade_native=False))
        assert engine.run_spec(quick_spec()) == reference_cells
        assert all(event.kind != "native-disabled-retry"
                   for event in engine.degradations)


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

    def test_failed_placeholders_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = SweepEngine(faults=FaultPlan.parse("crash:gzip:*"),
                             policy=NO_RETRY, cache=cache)
        engine.run_spec(quick_spec())
        assert engine.cell_failures
        # Only mcf's real cells were persisted; a healed rerun must
        # re-simulate gzip, not load an all-zero placeholder.
        assert len(cache) == LABELS_PER_BENCHMARK
        healed = SweepEngine(cache=ResultCache(tmp_path))
        healed.run_spec(quick_spec())
        assert healed.simulated_cells == LABELS_PER_BENCHMARK
        assert not healed.cell_failures

    def test_failed_cells_poison_overheads_as_nan(self):
        engine = SweepEngine(faults=FaultPlan.parse("crash:gzip:*"),
                             policy=NO_RETRY)
        sweep = OverheadSweep(QUICK, engine=engine)
        config = WatchdogConfig.isa_assisted_uaf()
        sweep.run_configs({ISA: config})
        assert math.isnan(sweep.overhead("gzip", ISA, config))
        # The geomean over a poisoned grid is NaN (never a fabricated
        # number), which can only read as DEVIATION in a metric check.
        assert math.isnan(sweep.geo_mean_overhead(ISA, config))
        assert sweep.overhead("mcf", ISA, config) > 0


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
        key = cache.key(request)
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


class TestJournal:
    def test_records_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        cell = CellResult(benchmark="gzip", configuration="baseline",
                          cycles=77, total_uops=123)
        with RunJournal(path) as journal:
            journal.record_done("k1", cell)
            journal.record_failed("k2", "mcf", ISA, "worker-crash")
        resumed = RunJournal(path, resume=True)
        assert resumed.completed_cell("k1") == cell
        assert resumed.completed_cell("k2") is None
        assert resumed.failed_cells() == {"k2": "worker-crash"}
        resumed.close()

    def test_last_status_wins(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        cell = CellResult(benchmark="mcf", configuration=ISA, cycles=5)
        with RunJournal(path) as journal:
            journal.record_failed("k", "mcf", ISA, "cell-timeout")
            journal.record_done("k", cell)
        resumed = RunJournal(path, resume=True)
        assert resumed.completed_cell("k") == cell
        assert resumed.failed_cells() == {}
        resumed.close()

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        cell = CellResult(benchmark="gzip", configuration="baseline", cycles=9)
        with RunJournal(path) as journal:
            journal.record_done("k1", cell)
        # Simulate an interrupt arriving mid-write of the next record.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"status": "done", "key": "k2", "cel')
        resumed = RunJournal(path, resume=True)
        assert not resumed.stale
        assert resumed.completed_cell("k1") == cell
        assert resumed.completed_cell("k2") is None
        resumed.close()

    def test_stale_code_fingerprint_discards_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"journal": 1, "code": "0" * 64}) + "\n"
                        + json.dumps({"status": "done", "key": "k",
                                      "benchmark": "gzip",
                                      "label": "baseline",
                                      "cell": CellResult(
                                          benchmark="gzip",
                                          configuration="baseline").to_dict()})
                        + "\n")
        journal = RunJournal(path, resume=True)
        assert journal.stale
        assert journal.completed_cell("k") is None
        journal.close()
        # The stale file was rewritten with a fresh, valid header.
        fresh = RunJournal(path, resume=True)
        assert not fresh.stale
        fresh.close()

    def test_fresh_run_truncates_previous_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as journal:
            journal.record_done("k", CellResult(benchmark="gzip",
                                                configuration="baseline"))
        with RunJournal(path, resume=False):
            pass
        resumed = RunJournal(path, resume=True)
        assert resumed.completed_cell("k") is None
        resumed.close()

    def test_header_pins_current_code(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        RunJournal(path).close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["code"] == code_fingerprint()


class TestJournalResume:
    def test_resume_re_simulates_only_failed_cells(self, tmp_path,
                                                   reference_cells):
        path = tmp_path / "journal.jsonl"
        crashed = SweepEngine(journal=RunJournal(path),
                              faults=FaultPlan.parse("crash:gzip:*"),
                              policy=NO_RETRY)
        first = crashed.run_spec(quick_spec())
        crashed.close()
        assert len(crashed.cell_failures) == LABELS_PER_BENCHMARK
        assert first[("mcf", ISA)] == reference_cells[("mcf", ISA)]

        resumed = SweepEngine(journal=RunJournal(path, resume=True))
        second = resumed.run_spec(quick_spec())
        resumed.close()
        # mcf came straight from the journal; only gzip re-simulated.
        assert resumed.journal_cells == LABELS_PER_BENCHMARK
        assert resumed.simulated_cells == LABELS_PER_BENCHMARK
        assert not resumed.cell_failures
        assert second == reference_cells

    def test_journal_serves_without_a_cache(self, tmp_path, reference_cells):
        path = tmp_path / "journal.jsonl"
        full = SweepEngine(journal=RunJournal(path))
        full.run_spec(quick_spec())
        full.close()
        resumed = SweepEngine(journal=RunJournal(path, resume=True))
        cells = resumed.run_spec(quick_spec())
        resumed.close()
        assert resumed.simulated_cells == 0
        assert resumed.journal_cells == len(quick_spec())
        assert cells == reference_cells


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
        assert DegradationEvent.from_dict(
            json.loads(json.dumps(event.to_dict()))) == event
        assert "gzip" in event.describe()

    def test_cell_failure_round_trip(self):
        failure = CellFailure(benchmark="gzip", label=ISA, attempts=3,
                              reason="cell-timeout", detail="deadline 5s")
        assert CellFailure.from_dict(
            json.loads(json.dumps(failure.to_dict()))) == failure
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
        restored = SuiteReport.from_dict(data)
        assert restored.degradations == report.degradations
        assert restored.cell_failures == report.cell_failures
        assert not restored.ok

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
