"""Simulation harness: traces, statistics, sampling, and the top-level simulator.

* :mod:`repro.sim.trace` — dynamic-trace representation (macro-level
  :class:`DynamicOp`, and the ``TraceTokens`` columns the stream compiler
  reads) and the rules that annotate µops with the address and port they
  access,
* :mod:`repro.sim.compiled` — the stream compiler that expands a dynamic
  trace into the packed µop stream the timing model replays,
* :mod:`repro.sim.stats` — statistic helpers (geometric mean, overhead math),
* :mod:`repro.sim.sampling` — the periodic-sampling schedule of §9.1,
* :mod:`repro.sim.results` — result records shared by experiments and benches
  (including the flat, cacheable :class:`CellResult`),
* :mod:`repro.sim.spec` — declarative experiment grids
  (:class:`ExperimentSettings`, :class:`RunRequest`, :class:`ExperimentSpec`),
* :mod:`repro.sim.cache` — the persistent content-addressed result cache,
* :mod:`repro.sim.engine` — the sweep engine executing grids serially or on
  a process pool with shared trace generation,
* :mod:`repro.sim.simulator` — the top-level object gluing workload,
  Watchdog configuration, functional execution and timing together.
"""

from repro.sim.trace import DynamicOp
from repro.sim.stats import geometric_mean, percent_overhead, OverheadReport
from repro.sim.sampling import SamplingConfig, SamplingSchedule
from repro.sim.results import CellResult, ExperimentResult
from repro.sim.spec import (
    BASELINE_LABEL,
    ExperimentSettings,
    ExperimentSpec,
    RunRequest,
)

#: Attributes resolved lazily (see ``__getattr__``) — the modules behind them
#: depend on the workload package, which itself imports
#: :mod:`repro.sim.trace`; importing them eagerly here would create an import
#: cycle when the workload package is loaded first.
_LAZY = {
    "Simulator": "repro.sim.simulator",
    "SimulationOutcome": "repro.sim.simulator",
    "SweepEngine": "repro.sim.engine",
    "ResultCache": "repro.sim.cache",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module 'repro.sim' has no attribute {name!r}")

__all__ = [
    "DynamicOp",
    "geometric_mean",
    "percent_overhead",
    "OverheadReport",
    "SamplingConfig",
    "SamplingSchedule",
    "CellResult",
    "ExperimentResult",
    "BASELINE_LABEL",
    "ExperimentSettings",
    "ExperimentSpec",
    "RunRequest",
    "Simulator",
    "SimulationOutcome",
    "SweepEngine",
    "ResultCache",
]
