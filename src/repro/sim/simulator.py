"""Top-level simulator.

Glues the pieces together for the two kinds of runs the evaluation needs:

* **workload timing runs** (Figures 5, 7, 8, 9, 10, 11): a synthetic
  SPEC-like workload generates a dynamic trace; the stream compiler injects
  Watchdog µops and annotates addresses; the out-of-order core replays the
  compiled µop stream against the Table 2 memory hierarchy and reports
  cycles,
* **program detection runs** (§9.2, the examples, the attack scenarios): a
  program built with the builder executes on the functional machine under a
  Watchdog configuration, and the result records whether a violation was
  detected (optionally also recording a dynamic trace so the same run can be
  timed).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.config import WatchdogConfig
from repro.core.pointer_id import PointerIdStats
from repro.core.uop_injection import InjectionStats
from repro.memory.pages import PageAccountant
from repro.pipeline.config import MachineConfig
from repro.pipeline.core import OutOfOrderCore, TimingResult
from repro.program.ir import Program
from repro.program.machine import ExecutionResult, Machine
from repro.sim.sampling import SamplingConfig
from repro.sim.trace import DynamicOp
from repro.workloads.bundle import TraceBundle, WorkingSet, \
    default_warmup_instructions
from repro.workloads.profiles import BenchmarkProfile, profile_by_name
from repro.workloads.streaming import SampleStream
from repro.workloads.synthetic import SyntheticWorkload


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
    def cycles(self) -> int:
        if self.timing is None:
            return 0
        return self.timing.cycles

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
    """Fold per-sample outcomes (in sample order) into one, §9.1-style."""
    accumulator = OutcomeAccumulator()
    for outcome in outcomes:
        accumulator.add(outcome)
    return accumulator.finalize()


class Simulator:
    """Runs workloads and programs under Watchdog configurations.

    Every timing run compiles its traces into packed µop streams
    (:mod:`repro.sim.compiled`) and replays them on the array scheduler —
    in the native timing core when it is loaded, else in the Python loops,
    which are bit-identical.
    """

    def __init__(self, machine: Optional[MachineConfig] = None,
                 timecore: Optional[bool] = None):
        self.machine = machine or MachineConfig()
        #: Native timing-core override handed to every core this simulator
        #: builds: ``True`` forces the C kernel (still falls back if it can't
        #: load), ``False`` forces the Python loops, ``None`` defers to the
        #: ``REPRO_TIMECORE`` environment switch.
        self.timecore = timecore

    # -- workload timing runs ---------------------------------------------------------
    def run_trace(self, trace: Iterable[DynamicOp], config: WatchdogConfig,
                  name: str = "trace",
                  warmup_trace: Optional[Iterable[DynamicOp]] = None,
                  workload: Optional[WorkingSet] = None) -> SimulationOutcome:
        """Compile and time an already-generated dynamic trace.

        ``warmup_trace`` mirrors the §9.1 methodology: its accesses prime the
        cache hierarchy (data, shadow and lock accesses alike) but are not
        timed and do not contribute to any statistic.  When the workload
        itself is provided, its whole live working set (data lines, lock
        locations and — for metadata-maintaining configurations — shadow
        lines) is additionally pre-touched, which is what the long warm-up
        windows of the paper's sampling methodology achieve.
        """
        from repro.sim import compiled as compiled_mod

        # Freeze the working set before anything consumes the measured
        # trace: for live workloads the generator advances the working set,
        # and the warm-up must reflect the warm-up/measure boundary.
        if workload is not None and hasattr(workload, "snapshot_working_set"):
            workload = workload.snapshot_working_set()
        compiler = compiled_mod.StreamCompiler(config, self.machine)
        ws_arrays = compiler.working_set_arrays(workload) \
            if workload is not None else None
        warm = compiler.compile_warm(compiled_mod.tokenize(warmup_trace)) \
            if warmup_trace is not None else None
        measured = compiler.compile_measured(compiled_mod.tokenize(trace))
        return self._run_compiled(measured, warm, ws_arrays, config, name)

    def _run_compiled(self, measured, warm, ws_arrays, config,
                      name: str) -> SimulationOutcome:
        """Warm the hierarchy and run the array scheduler on packed streams.

        The working set is installed first (see
        :func:`repro.sim.compiled.warm_working_set`), then the warm-up trace
        replays through the full demand machinery; both leave every
        statistic reset.
        """
        from repro.sim import compiled as compiled_mod

        core = OutOfOrderCore(machine=self.machine, watchdog=config,
                              timecore=self.timecore)
        if ws_arrays is not None:
            compiled_mod.warm_working_set(core.hierarchy, ws_arrays, config)
        if warm is not None:
            compiled_mod.warm_trace(core.hierarchy, warm, config)
        timing = core.simulate_compiled(measured)
        return SimulationOutcome(
            benchmark=name,
            configuration=self._config_name(config),
            timing=timing,
            injection=measured.injection,
            pointer_stats=measured.pointer,
            pages=measured.pages,
        )

    def run_benchmark(self, benchmark: str, config: WatchdogConfig,
                      instructions: int = 20_000, seed: int = 0,
                      warmup_instructions: Optional[int] = None,
                      sampling: Optional["SamplingConfig"] = None) -> SimulationOutcome:
        """Generate and time one SPEC-like synthetic benchmark."""
        profile = profile_by_name(benchmark)
        return self.run_profile(profile, config, instructions=instructions, seed=seed,
                                warmup_instructions=warmup_instructions,
                                sampling=sampling)

    def run_profile(self, profile: BenchmarkProfile, config: WatchdogConfig,
                    instructions: int = 20_000, seed: int = 0,
                    warmup_instructions: Optional[int] = None,
                    sampling: Optional["SamplingConfig"] = None) -> SimulationOutcome:
        """Generate and time a workload from an explicit profile.

        The workload generator produces one continuous dynamic stream; the
        first ``warmup_instructions`` (default: a quarter of the measured
        portion) warm the caches and the remainder is measured, mirroring the
        warm-up/measure structure of the paper's sampling methodology.
        ``sampling`` instead applies the §9.1 periodic schedule itself: the
        stream is segmented into fast-forward/warm-up/measure windows and
        only the measure windows are timed (see :meth:`run_bundle`).

        The measured portion streams straight into the timing core (O(1)
        trace memory, suitable for very long one-off runs); sweeps that need
        to replay one trace under many configurations materialize a
        :class:`TraceBundle` instead and use :meth:`run_bundle`, which
        produces bit-identical results.

        A schedule that genuinely samples the horizon runs through
        :meth:`run_streaming`, one sample in memory; one that measures
        everything or nothing normalizes to the unsampled bundle.
        """
        if sampling is not None:
            if warmup_instructions is None \
                    and sampling.samples_horizon(instructions):
                return self.run_streaming(profile, config,
                                          instructions=instructions,
                                          sampling=sampling, seed=seed)
            bundle = TraceBundle.generate(profile, seed=seed,
                                          instructions=instructions,
                                          warmup_instructions=warmup_instructions,
                                          sampling=sampling)
            return self.run_bundle(bundle, config)
        workload = SyntheticWorkload(profile, seed=seed)
        if warmup_instructions is None:
            warmup_instructions = default_warmup_instructions(instructions)
        warmup = workload.trace(warmup_instructions) if warmup_instructions else None
        return self.run_trace(workload.generate(instructions), config,
                              name=profile.name, warmup_trace=warmup,
                              workload=workload)

    def run_bundle(self, bundle: TraceBundle, config: WatchdogConfig) -> SimulationOutcome:
        """Time one pre-generated trace bundle under one configuration.

        The bundle is immutable: the same bundle can be replayed under any
        number of configurations (serially or from several worker processes)
        and yields exactly the cycles a fresh per-configuration workload
        generation would have produced.  The bundle caches its packed
        streams per configuration-equivalence class, so replaying n
        configurations costs one tokenization, one compilation per injection
        behaviour, and n array-scheduler runs.

        A sampled bundle (§9.1) runs each measure window as an independent
        timing run — fresh core, working set installed from the window's own
        snapshot, warm-up window replayed untimed — and aggregates the
        per-sample results (see :class:`OutcomeAccumulator`).
        """
        if bundle.samples:
            return aggregate_outcomes(
                self.sample_outcome(bundle, index, config)
                for index in range(len(bundle.samples)))
        streams = bundle.compiled_streams(config, machine=self.machine)
        return self._run_compiled(streams.measured, streams.warm,
                                  streams.working_set, config,
                                  bundle.benchmark)

    def run_streaming(self, profile, config: WatchdogConfig,
                      instructions: int, sampling: SamplingConfig,
                      seed: int = 0) -> SimulationOutcome:
        """Run a §9.1-sampled workload streaming: one sample in memory.

        Each sample segment is generated, wrapped as a transient one-sample
        bundle, compiled, simulated and folded into the accumulator — then
        every per-sample artifact (raw traces, token/stream caches,
        working-set arrays) is dropped with the bundle before the next
        sample is generated.  Peak memory is one sample regardless of
        horizon; the result is bit-identical to :meth:`run_bundle` over the
        retained bundle of the same (profile, seed, instructions, sampling).
        ``profile`` may be a :class:`BenchmarkProfile` or a profile name.
        """
        stream = SampleStream(profile, seed, instructions, sampling)
        return aggregate_outcomes(
            self.sample_outcome(stream.segment_bundle(segment), 0, config)
            for segment in stream.segments())

    def sample_outcome(self, bundle: TraceBundle, index: int,
                       config: WatchdogConfig) -> SimulationOutcome:
        """Replay one sample of a sampled bundle under one configuration.

        Each sample is an ordinary (warm-up, working set, measured) replay at
        window scale, through the same machinery as an unsampled bundle.
        """
        streams = bundle.compiled_sample_streams(index, config,
                                                 machine=self.machine)
        return self._run_compiled(streams.measured, streams.warm,
                                  streams.working_set, config,
                                  bundle.benchmark)

    # -- program detection runs --------------------------------------------------------
    def run_program(self, program: Program, config: WatchdogConfig,
                    with_timing: bool = False) -> SimulationOutcome:
        """Execute a program functionally; optionally also time its trace."""
        machine = Machine(config, record_trace=with_timing)
        detection = machine.run(program)
        outcome = SimulationOutcome(
            benchmark=program.entry,
            configuration=self._config_name(config),
            detection=detection,
            injection=machine.watchdog.injection_stats,
            pointer_stats=machine.watchdog.pointer_id_stats,
            pages=machine.watchdog.pages,
        )
        if with_timing and detection.trace:
            timed = self.run_trace(detection.trace, config, name=program.entry)
            outcome.timing = timed.timing
        return outcome

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
