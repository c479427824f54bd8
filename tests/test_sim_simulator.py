"""Tests for the top-level simulator (integration of workload, injection, timing)."""

import pytest

from tests.helpers import build_uaf_program
from repro.core.config import WatchdogConfig
from repro.program.machine import Machine
from repro.sim.results import CellResult
from repro.sim.simulator import Simulator
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import SyntheticWorkload

INSTRUCTIONS = 1_500


@pytest.fixture(scope="module")
def simulator():
    return Simulator()


def replay(simulator, benchmark, config, seed):
    bundle = TraceBundle.generate(benchmark, seed=seed,
                                  instructions=INSTRUCTIONS)
    return simulator.run_bundle(bundle, config)


class TestWorkloadRuns:
    def test_benchmark_run_produces_timing_and_stats(self, simulator):
        outcome = replay(simulator, "gzip", WatchdogConfig.isa_assisted_uaf(), seed=1)
        assert outcome.timing is not None and outcome.timing.cycles > 0
        assert outcome.injection is not None and outcome.injection.injected_uops > 0
        assert outcome.pointer_stats.memory_ops > 0
        assert outcome.pages.data_word_count > 0
        assert outcome.configuration == "isa-assisted"

    def test_watchdog_slower_than_baseline(self, simulator):
        base = replay(simulator, "mcf", WatchdogConfig.disabled(), seed=1)
        wd = replay(simulator, "mcf", WatchdogConfig.conservative_uaf(), seed=1)
        assert wd.timing.total_uops > base.timing.total_uops
        assert wd.cycles > base.cycles

    def test_conservative_injects_more_shadow_traffic_than_isa(self, simulator):
        cons = replay(simulator, "gcc", WatchdogConfig.conservative_uaf(), seed=2)
        isa = replay(simulator, "gcc", WatchdogConfig.isa_assisted_uaf(), seed=2)
        assert CellResult.from_outcome(cons).pointer_fraction > \
            CellResult.from_outcome(isa).pointer_fraction
        assert cons.injection.pointer_load_uops >= isa.injection.pointer_load_uops

    def test_bounds_config_widens_memory_footprint(self, simulator):
        uaf = replay(simulator, "perl", WatchdogConfig.isa_assisted_uaf(), seed=3)
        bounds = replay(simulator, "perl", WatchdogConfig.full_safety_two_uops(), seed=3)
        assert bounds.pages.shadow_word_count > uaf.pages.shadow_word_count
        assert bounds.injection.bounds_check_uops > 0

    def test_baseline_has_no_injection(self, simulator):
        base = replay(simulator, "lbm", WatchdogConfig.disabled(), seed=1)
        assert base.injection.injected_uops == 0
        assert base.configuration == "baseline"

    def test_run_trace_accepts_external_trace(self, simulator):
        workload = SyntheticWorkload(profile_by_name("go"), seed=4)
        outcome = simulator.run_trace(workload.generate(500),
                                      WatchdogConfig.isa_assisted_uaf(), name="go")
        assert outcome.benchmark == "go"
        assert outcome.timing.cycles > 0

    def test_config_names(self, simulator):
        assert Simulator._config_name(WatchdogConfig.no_lock_cache()) == \
            "isa-assisted+no-lock-cache"
        assert Simulator._config_name(WatchdogConfig.full_safety_fused()) == \
            "isa-assisted+fused-1uop"
        assert Simulator._config_name(WatchdogConfig.idealized_shadow()) == \
            "isa-assisted+ideal-shadow"


class TestProgramRuns:
    def test_run_program_reports_detection(self, simulator):
        outcome = simulator.run_program(build_uaf_program(),
                                        WatchdogConfig.isa_assisted_uaf())
        assert outcome.detected
        assert outcome.detection.violation_kind == "use-after-free"

    def test_run_program_with_timing(self, simulator):
        config = WatchdogConfig.isa_assisted_uaf()
        outcome = simulator.run_program(build_uaf_program(), config)
        assert outcome.timing is None
        # A detection run is timed by replaying the machine's recorded trace.
        trace = Machine(config, record_trace=True).run(
            build_uaf_program()).trace
        timing = simulator.run_trace(trace, config).timing
        assert timing.cycles > 0

    def test_run_program_baseline_misses_error(self, simulator):
        outcome = simulator.run_program(build_uaf_program(), WatchdogConfig.disabled())
        assert not outcome.detected
