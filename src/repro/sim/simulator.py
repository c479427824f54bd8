"""Top-level simulator.

Glues the pieces together for the two kinds of runs the evaluation needs:

* **workload timing runs** (Figures 5, 7, 8, 9, 10, 11): a
  :class:`~repro.workloads.bundle.TraceBundle` holds a workload's replay
  windows (one for an unsampled run, one per §9.1 sample otherwise); the
  stream compiler injects Watchdog µops and annotates addresses; the
  out-of-order core replays each window's compiled µop stream against the
  Table 2 memory hierarchy, and the windows' outcomes fold into one
  (:func:`aggregate_outcomes`).  Which cells stream their samples instead of
  retaining them is the sweep engine's decision (:mod:`repro.sim.engine`),
* **program detection runs** (§9.2, the examples, the attack scenarios): a
  program built with the builder executes on the functional machine under a
  Watchdog configuration, and the result records whether a violation was
  detected (optionally also recording a dynamic trace so the same run can be
  timed as a one-window bundle).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.config import WatchdogConfig
from repro.core.pointer_id import PointerIdStats
from repro.core.uop_injection import InjectionStats
from repro.memory.pages import PageAccountant
from repro.pipeline.core import OutOfOrderCore, TimingResult
from repro.program.ir import Program
from repro.program.machine import ExecutionResult, Machine
from repro.workloads.bundle import TraceBundle


@dataclass
class SimulationOutcome:
    """Everything one simulation run produced."""

    benchmark: str
    configuration: str
    timing: Optional[TimingResult] = None
    injection: Optional[InjectionStats] = None
    pointer_stats: Optional[PointerIdStats] = None
    pages: Optional[PageAccountant] = None
    detection: Optional[ExecutionResult] = None
    #: Per-core :class:`~repro.sim.results.CoreResult` blocks of a
    #: multi-core mix run (empty for single-core runs).
    cores: tuple = ()

    @property
    def detected(self) -> bool:
        return bool(self.detection and self.detection.detected)


class OutcomeAccumulator:
    """Fold per-sample outcomes one at a time, §9.1-style.

    Cycle and µop counters sum — the aggregate IPC is total µops over total
    cycles, i.e. the cycle-weighted mean of the per-sample IPCs, exactly as
    if the measure windows had executed back to back — injection and pointer
    classification counters sum, and the page accountant unions the touched
    word sets.  Per-port wait averages are weighted by each sample's cycles.

    Only per-sample scalars stay pinned between samples: the heavyweight
    parts of an outcome fold into running totals immediately, and just each
    sample's :class:`TimingResult` is kept, because the cycle-weighted
    port-wait average divides by the *total* cycles, unknown until
    :meth:`finalize`.
    """

    def __init__(self):
        self.benchmark: Optional[str] = None
        self.configuration: Optional[str] = None
        self._timings: List[TimingResult] = []
        self._injection = {field.name: 0
                           for field in dataclasses.fields(InjectionStats)}
        self._memory_ops = 0
        self._pointer_ops = 0
        self._pages = PageAccountant()

    def __len__(self) -> int:
        return len(self._timings)

    def add(self, outcome: SimulationOutcome) -> None:
        """Absorb one per-sample outcome (in sample order)."""
        if not self._timings:
            self.benchmark = outcome.benchmark
            self.configuration = outcome.configuration
        self._timings.append(outcome.timing)
        injection = self._injection
        for name in injection:
            injection[name] += getattr(outcome.injection, name)
        self._memory_ops += outcome.pointer_stats.memory_ops
        self._pointer_ops += outcome.pointer_stats.pointer_ops
        self._pages.data_words |= outcome.pages.data_words
        self._pages.shadow_words |= outcome.pages.shadow_words

    def finalize(self) -> SimulationOutcome:
        """The aggregate of everything absorbed, §9.1-style."""
        timings = self._timings
        if not timings:
            raise ValueError("no sample outcomes were accumulated")
        total_cycles = sum(timing.cycles for timing in timings)
        port_waits = {}
        for timing in timings:
            for port, wait in timing.port_waits.items():
                port_waits[port] = port_waits.get(port, 0.0) \
                    + wait * (timing.cycles / total_cycles if total_cycles else 0.0)
        timing = TimingResult(
            cycles=total_cycles,
            total_uops=sum(t.total_uops for t in timings),
            injected_uops=sum(t.injected_uops for t in timings),
            macro_instructions=sum(t.macro_instructions for t in timings),
            memory_accesses=sum(t.memory_accesses for t in timings),
            lock_cache_misses=sum(t.lock_cache_misses for t in timings),
            l1d_misses=sum(t.l1d_misses for t in timings),
            port_waits=port_waits,
        )
        return SimulationOutcome(
            benchmark=self.benchmark,
            configuration=self.configuration,
            timing=timing,
            injection=InjectionStats(**self._injection),
            pointer_stats=PointerIdStats(memory_ops=self._memory_ops,
                                         pointer_ops=self._pointer_ops),
            pages=self._pages,
        )


def aggregate_outcomes(
        outcomes: Iterable[SimulationOutcome]) -> SimulationOutcome:
    """Fold per-window outcomes (in window order) into one, §9.1-style.

    A single outcome is returned unchanged: a one-window replay (every
    unsampled bundle, a one-core mix) is its window's run exactly, not a
    re-derived copy of it.
    """
    outcomes = list(outcomes)
    if len(outcomes) == 1:
        return outcomes[0]
    accumulator = OutcomeAccumulator()
    for outcome in outcomes:
        accumulator.add(outcome)
    return accumulator.finalize()


class Simulator:
    """Runs workloads and programs under Watchdog configurations.

    Every timing run compiles its traces into packed µop streams
    (:mod:`repro.sim.compiled`) and replays them on the array scheduler —
    both in the native timing core when it is loaded, else in the Python
    loops, which are bit-identical.
    """

    def __init__(self, timecore: bool = True):
        #: Handed to every stream compilation and core this simulator
        #: runs: ``True`` uses the C kernel when it loads
        #: (``REPRO_TIMECORE=0`` still disables it), ``False`` forces the
        #: Python loops.
        self.timecore = timecore

    # -- workload timing runs ---------------------------------------------------------
    def run_bundle(self, bundle: TraceBundle, config: WatchdogConfig) -> SimulationOutcome:
        """Time one pre-generated trace bundle under one configuration.

        Each replay window is an independent timing run (see
        :meth:`sample_outcome`), and the windows' outcomes fold into one
        (:func:`aggregate_outcomes`; a one-window bundle's outcome is its
        window's).  The bundle is immutable: the same bundle can be replayed
        under any number of configurations (serially or from several worker
        processes) and yields exactly the cycles a fresh per-configuration
        workload generation would have produced.  The bundle caches its
        packed streams per window and configuration-equivalence class, so
        replaying n configurations costs one compilation per injection
        behaviour and n array-scheduler runs.
        """
        return aggregate_outcomes(
            self.sample_outcome(bundle, index, config)
            for index in range(len(bundle.samples)))

    def sample_outcome(self, bundle: TraceBundle, index: int,
                       config: WatchdogConfig) -> SimulationOutcome:
        """Replay window ``index`` of a bundle under one configuration.

        A fresh core has the window's working set installed (see
        :func:`repro.sim.compiled.warm_working_set`), then replays its
        warm-up stream untimed through the full demand machinery (both leave
        every statistic reset), then times its measured stream on the array
        scheduler.
        """
        from repro.sim import compiled as compiled_mod

        streams = bundle.compiled_sample_streams(index, config,
                                                 timecore=self.timecore)
        core = OutOfOrderCore(watchdog=config, timecore=self.timecore)
        compiled_mod.warm_working_set(core.hierarchy, streams.working_set,
                                      config)
        if streams.warm is not None:
            compiled_mod.warm_trace(core.hierarchy, streams.warm, config)
        measured = streams.measured
        timing = core.simulate_compiled(measured)
        return SimulationOutcome(
            benchmark=bundle.benchmark,
            configuration=self._config_name(config),
            timing=timing,
            injection=measured.injection,
            pointer_stats=measured.pointer,
            pages=measured.pages,
        )

    # -- program detection runs --------------------------------------------------------
    def run_program(self, program: Program,
                    config: WatchdogConfig) -> SimulationOutcome:
        """Execute a program functionally (a detection run, untimed)."""
        machine = Machine(config)
        detection = machine.run(program)
        return SimulationOutcome(
            benchmark=program.entry,
            configuration=self._config_name(config),
            detection=detection,
            injection=machine.watchdog.injection_stats,
            pointer_stats=machine.watchdog.pointer_id_stats,
            pages=machine.watchdog.pages,
        )

    # -- helpers --------------------------------------------------------------------------
    @staticmethod
    def _config_name(config: WatchdogConfig) -> str:
        if not config.enabled:
            return "baseline"
        parts = [config.pointer_identification.value]
        if config.bounds_enabled:
            parts.append(config.bounds_mode.value)
        if not config.lock_cache_enabled:
            parts.append("no-lock-cache")
        if config.ideal_shadow:
            parts.append("ideal-shadow")
        if not config.copy_elimination:
            parts.append("no-copy-elim")
        return "+".join(parts)
