"""Performance benchmark for the simulation hot paths (``repro bench``).

:data:`CELLS` is the whole benchmark: one row per timed cell, giving its
record key, the function that times it, its arguments, and the CI gates
that read its record.  ``BENCH_<rev>.json`` holds each cell's record plus
both native kernels' load statuses and any degradation event, so a number
can be traced to the code that made it.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import math
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import WatchdogConfig
from repro.sim.sampling import SamplingConfig, SamplingSchedule
from repro.sim.simulator import Simulator
from repro.workloads import _ffcore
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import (
    LONG_HORIZON_INSTRUCTIONS,
    ONE_B_HORIZON_INSTRUCTIONS,
    PAPER_HORIZON_INSTRUCTIONS,
    benchmark_names,
    mix_member_seed,
    parse_mix_benchmark,
    profile_by_name,
)
from repro.workloads.streaming import SampleStream
from repro.workloads.synthetic import SyntheticWorkload

#: The Figure 7 cell matrix: identification policies plus the §9.3 ablation,
#: each measured against the unprotected baseline.
MATRIX_CONFIGS: Tuple[Tuple[str, WatchdogConfig], ...] = (
    ("baseline", WatchdogConfig.disabled()),
    ("conservative", WatchdogConfig.conservative_uaf()),
    ("isa-assisted", WatchdogConfig.isa_assisted_uaf()),
    ("ideal-shadow", WatchdogConfig.idealized_shadow()),
)
#: The mix cell's configurations: unprotected and the headline ISA-assisted.
MIX_CONFIGS = (MATRIX_CONFIGS[0], MATRIX_CONFIGS[2])
DEFAULT_SEED = 7

#: The paper-scale smoke cell: the full 100M horizon under a §9.1 schedule
#: that keeps the timed portion smoke-sized (0.2% measured, 4 periods).
PAPER_BENCHMARK = "mcf-paper"
PAPER_INSTRUCTIONS = PAPER_HORIZON_INSTRUCTIONS
PAPER_SMOKE_SAMPLING = SamplingConfig(fast_forward=24_900_000,
                                      warmup=50_000, sample=50_000)

#: The 1B streaming smoke cell's schedule: 0.1% measured over 10 periods.
ONE_B_SMOKE_SAMPLING = SamplingConfig(fast_forward=99_800_000,
                                      warmup=100_000, sample=100_000)


class _Clock:
    """One cell's timed interval, split into consecutive named laps."""

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}
        self.started = time.perf_counter()
        self.wall = 0.0  # from the start to the end of the last lap

    def lap(self, phase: str) -> None:
        """Bill the time since the previous lap (or the start) to ``phase``."""
        wall = time.perf_counter() - self.started
        self.phases[phase] = self.phases.get(phase, 0.0) + wall - self.wall
        self.wall = wall

    def record(self, **fields: object) -> Dict[str, object]:
        """``fields`` plus the intervals, unrounded: the cell's rates divide
        by these very seconds (:func:`format_summary` rounds for display)."""
        fields["wall_seconds"] = self.wall
        fields["phases_seconds"] = dict(self.phases)
        return fields


def _rate(work: float, seconds: float) -> float:
    return round(work / seconds, 1) if seconds else 0.0


def run_matrix(benchmarks: Sequence[str], instructions: int,
               seed: int = DEFAULT_SEED) -> Dict[str, object]:
    """Time every benchmark under every :data:`MATRIX_CONFIGS` entry the
    way the sweep engine runs a cell.

    The compile phase ends at the kernel-ready (packed) stream, so the
    simulate phase is replay alone: ``kernel_uops_per_sec`` is µops per
    simulate second, ``compile_uops_per_sec`` per compile second and
    ``uops_per_sec`` per wall second.
    """
    from repro.native import _timecore

    simulator = Simulator()
    _timecore.load()  # keeps the kernel's build and self-test off the clock
    total_uops = 0
    clock = _Clock()
    for benchmark in benchmarks:
        bundle = TraceBundle.generate(benchmark, seed=seed,
                                      instructions=instructions)
        clock.lap("generate")
        for _, config in MATRIX_CONFIGS:
            bundle.compiled_streams(config)
            clock.lap("compile")
            total_uops += simulator.run_bundle(bundle, config).timing.total_uops
            clock.lap("simulate")
    cells = len(benchmarks) * len(MATRIX_CONFIGS)
    return clock.record(
        configurations=[label for label, _ in MATRIX_CONFIGS],
        cells=cells, total_uops=total_uops,
        cells_per_sec=_rate(cells, clock.wall),
        uops_per_sec=_rate(total_uops, clock.wall),
        compile_uops_per_sec=_rate(total_uops, clock.phases["compile"]),
        kernel_uops_per_sec=_rate(total_uops, clock.phases["simulate"]))


def run_sampled_cell(benchmark: str, instructions: int,
                     sampling: SamplingConfig,
                     seed: int = DEFAULT_SEED) -> Dict[str, object]:
    """Time one sampled cell under the ISA-assisted configuration.

    Generation walks the full horizon, so ``uops_per_sec`` is timed µops
    per *simulate* second, the quantity the sampled fast path controls.
    """
    simulator = Simulator()
    clock = _Clock()
    bundle = TraceBundle.generate(benchmark, seed=seed,
                                  instructions=instructions, sampling=sampling)
    clock.lap("generate")
    outcome = simulator.run_bundle(bundle, WatchdogConfig.isa_assisted_uaf())
    clock.lap("simulate")
    return clock.record(
        samples=len(bundle.samples),
        measured_instructions=bundle.measured_instructions,
        timed_uops=outcome.timing.total_uops,
        uops_per_sec=_rate(outcome.timing.total_uops,
                           clock.phases["simulate"]))


def run_fast_forward_cell(benchmark: str, ops: int,
                          seed: int = DEFAULT_SEED) -> Dict[str, object]:
    """Time a pure skip window: functional fast-forward, nothing emitted.
    Workload construction is outside the timed interval."""
    workload = SyntheticWorkload(profile_by_name(benchmark), seed=seed)
    clock = _Clock()
    workload.fast_forward(ops)
    clock.lap("fast_forward")
    return clock.record(fast_forward_ops_per_sec=_rate(ops, clock.wall))


def run_emit_cell(benchmark: str, ops: int,
                  seed: int = DEFAULT_SEED) -> Dict[str, object]:
    """Time one emitted window: ``ops`` ops written as token columns.
    Workload construction is outside the timed interval."""
    workload = SyntheticWorkload(profile_by_name(benchmark), seed=seed)
    clock = _Clock()
    workload.emit(ops)
    clock.lap("emit")
    return clock.record(emit_ops_per_sec=_rate(ops, clock.wall))


def run_suite_cell(seed: int = DEFAULT_SEED) -> Dict[str, object]:
    """Time ``repro run --all --quick`` as one merged batch, serial and
    cold.  ``suite_cells_per_sec`` (unique simulated cells per wall second)
    drops if the merge stops deduplicating or the per-cell path slows down.
    """
    from repro.experiments import REGISTRY, run_experiments
    from repro.experiments.common import ExperimentSettings
    from repro.sim.engine import SweepEngine

    settings = dataclasses.replace(ExperimentSettings.quick(), seed=seed)
    engine = SweepEngine()
    clock = _Clock()
    suite = run_experiments(list(REGISTRY), settings=settings, engine=engine)
    clock.lap("run_experiments")
    return clock.record(
        experiments=len(suite.reports), benchmarks=list(settings.benchmarks),
        instructions=settings.instructions,
        grid_cells_total=suite.engine["grid_cells_total"],
        simulated_cells=engine.simulated_cells,
        simulation_batches=engine.simulation_batches, checks_ok=suite.ok,
        suite_cells_per_sec=_rate(engine.simulated_cells, clock.wall))


def run_mix_cell(mix: str, instructions: int,
                 seed: int = DEFAULT_SEED) -> Dict[str, object]:
    """Time one multi-core mix under :data:`MIX_CONFIGS`.

    Members use the seeds the sweep engine derives, so the cell runs the
    ``repro run`` multi-core path: per-core warm-up, then the interleaved
    replay against the shared backend.  ``mix_uops_per_sec`` is µops per
    simulate second over both configurations and all cores.
    """
    from repro.sim.multicore import MultiCoreSimulator

    parsed, members = parse_mix_benchmark(mix)
    simulator = MultiCoreSimulator()
    clock = _Clock()
    bundles = [TraceBundle.generate(
        name, seed=mix_member_seed(parsed.name, index, seed),
        instructions=instructions) for index, name in members]
    clock.lap("generate")
    total_uops = sum(simulator.run_mix(mix, bundles, config).timing.total_uops
                     for _, config in MIX_CONFIGS)
    clock.lap("simulate")
    return clock.record(
        members=[name for _, name in members],
        configurations=[label for label, _ in MIX_CONFIGS],
        total_uops=total_uops,
        mix_uops_per_sec=_rate(total_uops, clock.phases["simulate"]))


def run_one_b_cell(benchmark: str, instructions: int,
                   sampling: SamplingConfig,
                   seed: int = DEFAULT_SEED) -> Dict[str, object]:
    """Stream one cell through the sweep engine's job executor.

    ``one_b_ops_per_sec`` is horizon instructions per wall second: at 99.8%
    skip the run is generation-dominated, and that rate collapses (~15x) if
    the native fast-forward kernel stops carrying the skip windows.
    """
    from repro.sim.engine import BenchmarkJob, execute_job

    # Also refuses a schedule that would not stream (it samples nothing).
    samples = len(SampleStream(benchmark, seed, instructions, sampling))
    job = BenchmarkJob(benchmark=benchmark, seed=seed,
                       instructions=instructions, warmup_instructions=None,
                       sampling=sampling,
                       cells=(("isa-assisted",
                               WatchdogConfig.isa_assisted_uaf()),))
    clock = _Clock()
    (cell,) = execute_job(job)
    clock.lap("stream")
    return clock.record(
        samples=samples,
        measured_instructions=SamplingSchedule(sampling).measured_count(
            instructions),
        streaming=True, timed_uops=cell.total_uops,
        one_b_ops_per_sec=_rate(instructions, clock.wall),
        timed_uops_per_sec=_rate(cell.total_uops, clock.wall))


class Gate(NamedTuple):
    """``record[cell][record_key]`` against ``baseline[baseline_key]``: a
    floor (less the tolerance) or, with ``ceiling``, a limit."""

    label: str
    baseline_key: str
    record_key: str
    unit: str
    ceiling: bool = False


class Cell(NamedTuple):
    key: str
    run: Callable[..., Dict[str, object]]
    args: Dict[str, object]
    gates: Tuple[Gate, ...]


#: Run in this order: the first cell compiles with cold template caches, so
#: its compile rate includes building each class's templates once, and the
#: 1B cell's RSS stamp is the high-water mark of the whole run.
CELLS: Tuple[Cell, ...] = (
    # The Figure 7 matrix at the registry's default scale, per wall,
    # simulate and compile second.
    Cell("compiled", run_matrix,
         dict(benchmarks=tuple(benchmark_names()), instructions=8_000),
         (Gate("matrix", "uops_per_sec", "uops_per_sec", "uops/sec"),
          Gate("timecore", "kernel_uops_per_sec", "kernel_uops_per_sec",
               "uops/sec"),
          Gate("compile", "compile_uops_per_sec", "compile_uops_per_sec",
               "uops/sec"))),
    Cell("sampled", run_sampled_cell,
         dict(benchmark="mcf-long", instructions=LONG_HORIZON_INSTRUCTIONS,
              sampling=SamplingConfig.quick()),
         (Gate("sampled", "sampled_uops_per_sec", "uops_per_sec",
               "uops/sec"),)),
    # Skip speed decides whether paper-scale horizons are reachable.
    Cell("fast_forward", run_fast_forward_cell,
         dict(benchmark="mcf-long", ops=8_000_000),
         (Gate("fast_forward", "fast_forward_ops_per_sec",
               "fast_forward_ops_per_sec", "ops/sec"),)),
    # Emission speed decides what every timed window costs to generate.
    Cell("emit", run_emit_cell,
         dict(benchmark="mcf-long", ops=2_000_000),
         (Gate("emit", "emit_ops_per_sec", "emit_ops_per_sec", "ops/sec"),)),
    # Completing the full paper horizon is the point.
    Cell("paper_sampled", run_sampled_cell,
         dict(benchmark=PAPER_BENCHMARK, instructions=PAPER_INSTRUCTIONS,
              sampling=PAPER_SMOKE_SAMPLING),
         (Gate("paper_sampled", "paper_sampled_uops_per_sec", "uops_per_sec",
               "uops/sec"),)),
    # The merged registry suite, as `repro run --all --quick` runs it.
    Cell("suite", run_suite_cell, {},
         (Gate("suite", "suite_cells_per_sec", "suite_cells_per_sec",
               "cells/sec"),)),
    # The most memory-intensive 4-app mix.
    Cell("mix", run_mix_cell, dict(mix="mix1", instructions=8_000),
         (Gate("mix", "mix_uops_per_sec", "mix_uops_per_sec", "uops/sec"),)),
    # The full 1B horizon in flat memory is the point; its schedule keeps
    # the timed part smoke-sized.
    Cell("one_b", run_one_b_cell,
         dict(benchmark="mcf-1b", instructions=ONE_B_HORIZON_INSTRUCTIONS,
              sampling=ONE_B_SMOKE_SAMPLING),
         (Gate("one_b", "one_b_ops_per_sec", "one_b_ops_per_sec", "ops/sec"),
          Gate("one_b_rss", "one_b_peak_rss_mb", "peak_rss_mb", "MB",
               ceiling=True))),
)


def repo_revision() -> str:
    """Short git revision of the working tree, or ``dev`` outside a checkout."""
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip() or "dev"
    except (OSError, subprocess.SubprocessError):
        return "dev"


def peak_rss_mb() -> Optional[float]:
    """This process's peak resident set size in MB, or ``None`` if unknown.

    Best-effort via ``getrusage`` (KB on Linux, bytes on macOS, absent on
    Windows).  It is the process-lifetime high-water mark, so a cell's stamp
    is the high water as of that cell finishing, and a ceiling on the last
    cell bounds the whole run.
    """
    try:
        import resource
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError, ValueError):
        return None
    if not usage:
        return None
    divisor = 1024 * 1024 if sys.platform == "darwin" else 1024
    return round(usage / divisor, 1)


def run_bench(seed: int = DEFAULT_SEED) -> Dict[str, object]:
    """Run every :data:`CELLS` row and return the record."""
    from repro.experiments.common import kernel_degradation_events
    from repro.native import _timecore, build

    record: Dict[str, object] = {
        "revision": repo_revision(),
        "generated_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
    }
    for cell in CELLS:
        stats = cell.run(seed=seed, **cell.args)
        stats["args"] = json.loads(json.dumps(cell.args,
                                              default=dataclasses.asdict))
        rss = peak_rss_mb()
        if rss is not None:
            stats["peak_rss_mb"] = rss
        record[cell.key] = stats
    # A silently failed kernel build shows up here (and as a degradation
    # event) instead of masquerading as a regression of the hot path.
    _timecore.load()
    _ffcore.load()
    record["kernels"] = {name: status.to_dict()
                         for name, status in sorted(build.statuses().items())}
    record["degradations"] = [event.to_dict()
                              for event in kernel_degradation_events()]
    return record


def write_record(record: Dict[str, object],
                 output: Optional[str] = None) -> Path:
    """Write the benchmark record to ``BENCH_<rev>.json`` (or ``output``)."""
    path = Path(output) if output else Path(f"BENCH_{record['revision']}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


#: How far below its baseline a floor's figure may fall before the gate
#: fails; ceilings take no tolerance.
MAX_REGRESSION = 0.30


def load_baseline(path: str) -> Dict[str, object]:
    """Read a baseline file: a JSON object that declares the matrix floor
    (``uops_per_sec``) at least, and a finite number for each gate it
    declares.

    Raises :class:`OSError`, :class:`ValueError` or :class:`KeyError` for a
    file that cannot serve as one, so ``repro bench --check`` can refuse it
    before timing any cell.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if "uops_per_sec" not in data:
        raise KeyError("uops_per_sec")
    for cell in CELLS:
        for gate in cell.gates:
            if gate.baseline_key not in data:
                continue
            limit = data[gate.baseline_key]
            if isinstance(limit, bool) or not isinstance(limit, (int, float)) \
                    or not math.isfinite(limit):
                raise ValueError(f"{gate.baseline_key} must be a finite "
                                 f"number, got {limit!r}")
    return data


def check_against_baseline(record: Dict[str, object],
                           baseline: Dict[str, object]) -> Tuple[bool, str]:
    """Check every :data:`CELLS` gate a loaded baseline (see
    :func:`load_baseline`) declares; returns ``(ok, message)``.

    A floor fails when the figure drops more than :data:`MAX_REGRESSION`
    below the baseline.  A ceiling takes no tolerance: it carries its own
    headroom, and the leak it guards against (samples retained across the
    horizon) overshoots by gigabytes.  A gate whose cell the record lacks,
    or whose ceiling figure this platform cannot measure, is skipped.
    """
    ok = True
    parts, skipped = [], []
    for cell in CELLS:
        stats = record.get(cell.key)
        for gate in cell.gates:
            limit = baseline.get(gate.baseline_key)
            if limit is None:
                continue
            if stats is None or gate.ceiling and \
                    stats.get(gate.record_key) is None:
                why = f"no {cell.key} cell in record" if stats is None else \
                    f"{gate.record_key} unavailable on this platform"
                skipped.append(f"{gate.label}: SKIPPED ({why})")
                continue
            limit, measured = float(limit), float(stats[gate.record_key])
            if gate.ceiling:
                passed = measured <= limit
                against = f"ceiling {limit:,.0f} (no tolerance)"
            else:
                floor = limit * (1.0 - MAX_REGRESSION)
                passed = measured >= floor
                against = (f"baseline {limit:,.0f} (floor {floor:,.0f}, "
                           f"tolerance {MAX_REGRESSION:.0%})")
            ok = ok and passed
            verdict = "OK" if passed else \
                "EXCEEDED" if gate.ceiling else "REGRESSION"
            parts.append(f"{gate.label}: measured {measured:,.0f} {gate.unit} "
                         f"vs {against}: {verdict}")
    return ok, "; ".join(parts + skipped)


def format_summary(record: Dict[str, object]) -> str:
    """Human-readable rendering of a benchmark record: one line per cell."""
    lines = [f"revision {record['revision']}"]
    for cell in CELLS:
        stats = record.get(cell.key)
        if stats is None:
            continue
        figures = ", ".join(
            f"{gate.label} {stats[gate.record_key]:,.0f} {gate.unit}"
            for gate in cell.gates if stats.get(gate.record_key) is not None)
        phases = ", ".join(f"{name} {seconds:.2f}s" for name, seconds
                           in stats["phases_seconds"].items())
        lines.append(f"{cell.key:>13}: {figures} in "
                     f"{stats['wall_seconds']:.2f}s ({phases})")
    kernels = record.get("kernels") or {}
    if kernels:
        lines.append(f"{'kernels':>13}: " + ", ".join(
            f"{name}=" + ("native" if status.get("available") else
                          "disabled" if status.get("disabled") else
                          f"UNAVAILABLE ({status.get('reason', 'unknown')})")
            for name, status in kernels.items()))
    for event in record.get("degradations") or ():
        lines.append(f"{'degraded':>13}: {event.get('kind')}: "
                     f"{event.get('subject')} — {event.get('detail')}")
    return "\n".join(lines)
