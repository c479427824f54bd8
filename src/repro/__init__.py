"""Behavioral reproduction of *Watchdog: Hardware for Safe and Secure Manual
Memory Management and Full Memory Safety* (Nagarakatte, Martin, Zdancewic,
ISCA 2012).

The public API re-exports the pieces a downstream user typically needs:

* :class:`~repro.core.config.WatchdogConfig` and the
  :class:`~repro.core.watchdog.Watchdog` engine (the paper's contribution),
* the program-building layer (:class:`~repro.program.builder.ProgramBuilder`,
  :class:`~repro.program.machine.Machine`) for writing and executing small
  C-like programs under Watchdog,
* the simulation layer (:class:`~repro.sim.simulator.Simulator`) for
  timing studies of the SPEC-like synthetic workloads on the Table 2
  machine (:class:`~repro.pipeline.config.MachineConfig`),
* the sweep engine (:class:`~repro.sim.engine.SweepEngine`,
  :class:`~repro.sim.spec.ExperimentSpec`,
  :class:`~repro.sim.cache.ResultCache`) for declarative, parallel,
  cached (benchmark × configuration) grids,
* the workload generators (SPEC profiles, Juliet-style suite, attacks),
* the experiment drivers under :mod:`repro.experiments`, one per paper
  table/figure.

Quickstart::

    from repro import ProgramBuilder, Machine, WatchdogConfig

    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", 64)      # p = malloc(64)
        main.mov("r2", "r1")       # q = p
        main.free("r1")            # free(p)
        main.load("r3", "r2")      # ... = *q   (dangling!)
    result = Machine(WatchdogConfig.isa_assisted_uaf()).run(builder.build())
    assert result.detected and result.violation_kind == "use-after-free"
"""

from repro.core.config import BoundsCheckMode, PointerIdentificationMode, WatchdogConfig
from repro.core.watchdog import Watchdog
from repro.errors import (
    BoundsError,
    DoubleFreeError,
    InvalidFreeError,
    MemorySafetyViolation,
    ReproError,
    UseAfterFreeError,
)
from repro.pipeline.config import MachineConfig
from repro.program.builder import ProgramBuilder
from repro.program.machine import ExecutionResult, Machine
from repro.sim.cache import ResultCache
from repro.sim.engine import SweepEngine
from repro.sim.results import CellResult, ExperimentResult
from repro.sim.simulator import SimulationOutcome, Simulator
from repro.sim.spec import ExperimentSettings, ExperimentSpec, RunRequest
from repro.workloads.juliet import JulietSuite
from repro.workloads.profiles import SPEC_PROFILES, benchmark_names, profile_by_name
from repro.workloads.synthetic import SyntheticWorkload

__version__ = "1.0.0"

__all__ = [
    "WatchdogConfig",
    "PointerIdentificationMode",
    "BoundsCheckMode",
    "Watchdog",
    "MachineConfig",
    "ProgramBuilder",
    "Machine",
    "ExecutionResult",
    "Simulator",
    "SimulationOutcome",
    "SweepEngine",
    "ResultCache",
    "CellResult",
    "ExperimentResult",
    "ExperimentSettings",
    "ExperimentSpec",
    "RunRequest",
    "JulietSuite",
    "SyntheticWorkload",
    "SPEC_PROFILES",
    "benchmark_names",
    "profile_by_name",
    "ReproError",
    "MemorySafetyViolation",
    "UseAfterFreeError",
    "BoundsError",
    "DoubleFreeError",
    "InvalidFreeError",
    "__version__",
]
