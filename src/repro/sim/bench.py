"""Performance benchmark for the simulation hot path (``repro bench``).

Times the Figure 7 runtime-overhead cell matrix — every benchmark profile
under the unprotected baseline, conservative and ISA-assisted use-after-free
checking, and the idealized-shadow ablation — through :class:`Simulator`
exactly the way the sweep engine executes it, and reports throughput
(cells/sec, µops/sec) with a per-phase breakdown (workload generation,
stream compilation, simulation).

Results are written to ``BENCH_<rev>.json`` so the performance trajectory is
tracked across PRs, and ``--check`` compares the measured µops/sec against a
checked-in baseline, failing on regressions beyond the tolerance — that is
what the CI perf-smoke job runs.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import WatchdogConfig
from repro.pipeline.config import MachineConfig
from repro.sim.sampling import SamplingConfig, SamplingSchedule
from repro.sim.simulator import Simulator
from repro.workloads import _ffcore
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import (
    LONG_HORIZON_INSTRUCTIONS,
    ONE_B_HORIZON_INSTRUCTIONS,
    PAPER_HORIZON_INSTRUCTIONS,
    benchmark_names,
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

#: Benchmarks used by ``--quick`` (mirrors ``ExperimentSettings.quick``).
QUICK_BENCHMARKS = ("gzip", "mcf", "lbm", "gcc")
QUICK_INSTRUCTIONS = 3_000
DEFAULT_INSTRUCTIONS = 8_000
DEFAULT_SEED = 7

#: The sampled long-profile cell: one long-horizon benchmark timed under the
#: quick §9.1 schedule and the headline ISA-assisted configuration.  This is
#: the sampling fast path's regression gate (perf-smoke runs it via
#: ``repro bench --quick --check``); ``--quick`` shortens the horizon so the
#: CI job stays a smoke test.
SAMPLED_BENCHMARK = "mcf-long"
SAMPLED_INSTRUCTIONS = LONG_HORIZON_INSTRUCTIONS
SAMPLED_QUICK_INSTRUCTIONS = 400_000

#: The skip-window-only cell: how fast the state-evolution core advances a
#: workload functionally (no trace materialized).  This is the quantity that
#: decides whether paper-scale horizons are reachable, gated in CI via
#: ``fast_forward_ops_per_sec`` (recorded pre-split baseline: ~270k ops/sec,
#: when skip windows ran the full per-op generation path).
FAST_FORWARD_BENCHMARK = "mcf-long"
FAST_FORWARD_OPS = 8_000_000
FAST_FORWARD_QUICK_OPS = 2_000_000

#: The multi-core mix cell: the most memory-intensive 4-app bundle replayed
#: through :class:`~repro.sim.multicore.MultiCoreSimulator` under the
#: unprotected baseline and the headline ISA-assisted configuration.  Gated
#: in CI via ``mix_uops_per_sec`` — the epoch-interleaved shared-hierarchy
#: replay is a new hot path with its own regression budget.
MIX_BENCHMARK = "mix1"
MIX_INSTRUCTIONS = DEFAULT_INSTRUCTIONS
MIX_QUICK_INSTRUCTIONS = QUICK_INSTRUCTIONS
MIX_CONFIGS: Tuple[Tuple[str, WatchdogConfig], ...] = (
    ("baseline", WatchdogConfig.disabled()),
    ("isa-assisted", WatchdogConfig.isa_assisted_uaf()),
)

#: The paper-scale smoke cell: one ``*-paper`` benchmark over the full 100M
#: instruction horizon under a §9.1 schedule that keeps the timed portion
#: smoke-test sized (0.2% measured, 4 periods).  Its completion inside the
#: CI perf-smoke job is what demonstrates the paper's measurement regime is
#: actually reachable end to end.
PAPER_BENCHMARK = "mcf-paper"
PAPER_INSTRUCTIONS = PAPER_HORIZON_INSTRUCTIONS
PAPER_SMOKE_SAMPLING = SamplingConfig(fast_forward=24_900_000,
                                      warmup=50_000, sample=50_000)

#: The billion-instruction streaming smoke cell: one ``*-1b`` benchmark over
#: the full 1B horizon through :meth:`Simulator.run_streaming`, under a §9.1
#: schedule that keeps the timed portion smoke-test sized (0.1% measured,
#: 10 periods).  Gated two ways in CI: ``one_b_ops_per_sec`` floors the
#: end-to-end rate (generation-dominated — it collapses if the native
#: fast-forward kernel stops carrying the skip windows), and
#: ``one_b_peak_rss_mb`` *ceilings* the process peak RSS — the streaming
#: guarantee that memory stays one-sample-flat regardless of horizon (a
#: retained 1B bundle would blow through it by gigabytes).
ONE_B_BENCHMARK = "mcf-1b"
ONE_B_INSTRUCTIONS = ONE_B_HORIZON_INSTRUCTIONS
ONE_B_SMOKE_SAMPLING = SamplingConfig(fast_forward=99_800_000,
                                      warmup=100_000, sample=100_000)


def repo_revision() -> str:
    """Short git revision of the working tree, or ``dev`` outside a checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "dev"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "dev"


def run_matrix(benchmarks: Sequence[str], instructions: int, seed: int,
               machine: Optional[MachineConfig] = None,
               sampling: Optional[SamplingConfig] = None,
               timecore: Optional[bool] = None) -> Dict[str, object]:
    """Time the cell matrix; returns the stats record.

    The compile phase covers everything between trace tokens and the
    kernel-ready stream, *including* stream packing: the compiler emits the
    kernel's flat wire format directly, and any residual tuple-only stream
    is packed (or marked unpackable) here rather than lazily inside the
    first ``simulate_compiled`` call — so ``phases_seconds`` bills packing
    to compile, not simulate.
    """
    from repro.native import _timecore

    simulator = Simulator(machine=machine, timecore=timecore)
    lib = None if timecore is False else _timecore.load()
    phases = {"generate": 0.0, "compile": 0.0, "simulate": 0.0}
    total_uops = 0
    cells = 0
    sampled_bundles = 0
    started = time.perf_counter()
    for benchmark in benchmarks:
        t0 = time.perf_counter()
        bundle = TraceBundle.generate(benchmark, seed=seed,
                                      instructions=instructions,
                                      sampling=sampling)
        phases["generate"] += time.perf_counter() - t0
        if bundle.samples:
            sampled_bundles += 1
        for _, config in MATRIX_CONFIGS:
            t0 = time.perf_counter()
            if bundle.samples:
                for index in range(len(bundle.samples)):
                    built = bundle.compiled_sample_streams(
                        index, config, machine=simulator.machine)
                    _timecore.pack_stream(built.measured, lib)
            else:
                built = bundle.compiled_streams(
                    config, machine=simulator.machine)
                _timecore.pack_stream(built.measured, lib)
            phases["compile"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            outcome = simulator.run_bundle(bundle, config)
            phases["simulate"] += time.perf_counter() - t0
            total_uops += outcome.timing.total_uops
            cells += 1
    wall = time.perf_counter() - started
    return {
        "cells": cells,
        #: How many of the benchmarks' bundles genuinely sampled; a requested
        #: schedule that measures nothing at this scale normalizes to
        #: unsampled, and the record must not claim otherwise.
        "sampled_bundles": sampled_bundles,
        "total_uops": total_uops,
        "wall_seconds": round(wall, 4),
        "cells_per_sec": round(cells / wall, 3),
        "uops_per_sec": round(total_uops / wall, 1),
        "phases_seconds": {name: round(value, 4)
                           for name, value in phases.items()},
    }


def run_sampled_cell(benchmark: str = SAMPLED_BENCHMARK,
                     instructions: int = SAMPLED_INSTRUCTIONS,
                     seed: int = DEFAULT_SEED,
                     sampling: Optional[SamplingConfig] = None,
                     machine: Optional[MachineConfig] = None) -> Dict[str, object]:
    """Time one sampled long-profile cell end to end (the sampling fast path).

    Generation walks the full horizon (fast-forward is functional), so the
    throughput figure is timed µops per second of *simulation* wall time —
    the quantity the sampled fast path controls — with generation reported
    separately.
    """
    sampling = sampling or SamplingConfig.quick()
    simulator = Simulator(machine=machine)
    t0 = time.perf_counter()
    bundle = TraceBundle.generate(benchmark, seed=seed,
                                  instructions=instructions, sampling=sampling)
    generate_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    outcome = simulator.run_bundle(bundle, WatchdogConfig.isa_assisted_uaf())
    simulate_wall = time.perf_counter() - t0
    timing = outcome.timing
    return {
        "benchmark": benchmark,
        "instructions": instructions,
        "sampling": dataclasses.asdict(sampling),
        "samples": len(bundle.samples),
        "measured_instructions": bundle.measured_instructions,
        "timed_uops": timing.total_uops,
        "generate_seconds": round(generate_wall, 4),
        "simulate_seconds": round(simulate_wall, 4),
        "uops_per_sec": round(timing.total_uops / simulate_wall, 1)
        if simulate_wall else 0.0,
    }


def run_fast_forward_cell(benchmark: str = FAST_FORWARD_BENCHMARK,
                          ops: int = FAST_FORWARD_OPS,
                          seed: int = DEFAULT_SEED) -> Dict[str, object]:
    """Time a pure skip window: functional fast-forward, nothing emitted.

    Workload construction (the initial working-set population) is excluded —
    the cell measures exactly what a §9.1 skip window costs.  ``accelerated``
    records whether the native kernel was active, so a regression caused by
    a silently failed kernel build is distinguishable from a real slowdown.
    """
    workload = SyntheticWorkload(profile_by_name(benchmark), seed=seed)
    t0 = time.perf_counter()
    workload.fast_forward(ops)
    wall = time.perf_counter() - t0
    return {
        "benchmark": benchmark,
        "ops": ops,
        "wall_seconds": round(wall, 4),
        "fast_forward_ops_per_sec": round(ops / wall, 1) if wall else 0.0,
        "accelerated": _ffcore.load() is not None,
    }


def run_paper_cell(benchmark: str = PAPER_BENCHMARK,
                   instructions: int = PAPER_INSTRUCTIONS,
                   seed: int = DEFAULT_SEED,
                   sampling: Optional[SamplingConfig] = None,
                   machine: Optional[MachineConfig] = None) -> Dict[str, object]:
    """Run one paper-scale (100M-instruction) sampled cell end to end.

    Identical in shape to :func:`run_sampled_cell` but at the paper horizon:
    generation walks all 100M instructions (fast-forward covers 99.8% of
    them), and only the schedule's measure windows are timed.
    """
    return run_sampled_cell(benchmark=benchmark, instructions=instructions,
                            seed=seed,
                            sampling=sampling or PAPER_SMOKE_SAMPLING,
                            machine=machine)


def peak_rss_mb() -> Optional[float]:
    """This process's peak resident set size in MB, or ``None`` if unknown.

    Best-effort via ``getrusage``: Linux reports ``ru_maxrss`` in KB, macOS
    in bytes, and platforms without the ``resource`` module (Windows) report
    nothing.  The figure is the process-lifetime high-water mark — it only
    ever grows — so per-cell stamps record the high water *as of that cell
    finishing*, and a ceiling on a late cell bounds the whole run.
    """
    try:
        import resource
    except ImportError:
        return None
    try:
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (OSError, ValueError):
        return None
    if not usage:
        return None
    divisor = 1024 * 1024 if sys.platform == "darwin" else 1024
    return round(usage / divisor, 1)


def run_one_b_cell(benchmark: str = ONE_B_BENCHMARK,
                   instructions: int = ONE_B_INSTRUCTIONS,
                   seed: int = DEFAULT_SEED,
                   sampling: Optional[SamplingConfig] = None,
                   machine: Optional[MachineConfig] = None) -> Dict[str, object]:
    """Run one billion-instruction streaming cell end to end.

    The cell runs :meth:`Simulator.run_streaming` directly: it exists to
    demonstrate — and regression-gate — that the 1B regime completes in
    one-sample-flat memory.  The headline figure is *end-to-end* horizon
    instructions per wall second, because at 99.8% skip the run is
    generation-dominated by construction: that is the quantity that
    collapses (by ~15x) if the native fast-forward kernel silently stops
    carrying the skip windows.
    ``peak_rss_mb`` is stamped by :func:`run_bench` when the cell finishes
    and is ceiling-gated via ``one_b_peak_rss_mb``.
    """
    sampling = sampling or ONE_B_SMOKE_SAMPLING
    simulator = Simulator(machine=machine)
    stream = SampleStream(benchmark, seed, instructions, sampling)
    t0 = time.perf_counter()
    outcome = simulator.run_streaming(benchmark,
                                      WatchdogConfig.isa_assisted_uaf(),
                                      instructions=instructions,
                                      sampling=sampling, seed=seed)
    wall = time.perf_counter() - t0
    timing = outcome.timing
    return {
        "benchmark": benchmark,
        "instructions": instructions,
        "sampling": dataclasses.asdict(sampling),
        "samples": len(stream),
        "measured_instructions":
            SamplingSchedule(sampling).measured_count(instructions),
        "streaming": True,
        "timed_uops": timing.total_uops,
        "wall_seconds": round(wall, 4),
        "one_b_ops_per_sec": round(instructions / wall, 1) if wall else 0.0,
        "timed_uops_per_sec": round(timing.total_uops / wall, 1)
        if wall else 0.0,
    }


def run_timecore_cell(benchmarks: Optional[Sequence[str]] = None,
                      instructions: Optional[int] = None,
                      seed: int = DEFAULT_SEED) -> Dict[str, object]:
    """Time the fig7 matrix with the native timing core pinned on.

    Two figures are gated in CI against the ``benchmarks/perf_baseline.json``
    floors: ``kernel_uops_per_sec`` (µops per second of *simulate-phase*
    wall time — the quantity the C kernel controls) and
    ``compile_uops_per_sec`` (µops per second of *compile-phase* wall time —
    the flat stream compiler, which packs the kernel's wire format
    directly).  ``end_to_end_uops_per_sec`` (compile + simulate) is recorded
    for trajectory comparisons.  Deliberately not scaled down by
    ``--quick``: the floors describe the full-matrix rate, and at smoke
    scale per-cell setup noise would swamp the kernel.  ``accelerated``
    records whether the kernel actually loaded, so a regression caused by a
    silently failed build is distinguishable from a real slowdown.
    """
    from repro.native import _timecore

    benchmarks = tuple(benchmarks or benchmark_names())
    if instructions is None:
        instructions = DEFAULT_INSTRUCTIONS
    stats = run_matrix(benchmarks, instructions, seed, timecore=True)
    simulate = stats["phases_seconds"]["simulate"]
    compile_s = stats["phases_seconds"]["compile"]
    return {
        "benchmarks": list(benchmarks),
        "instructions": instructions,
        "cells": stats["cells"],
        "total_uops": stats["total_uops"],
        "wall_seconds": stats["wall_seconds"],
        "simulate_seconds": simulate,
        "compile_seconds": compile_s,
        "matrix_uops_per_sec": stats["uops_per_sec"],
        "kernel_uops_per_sec": round(stats["total_uops"] / simulate, 1)
        if simulate else 0.0,
        "compile_uops_per_sec": round(stats["total_uops"] / compile_s, 1)
        if compile_s else 0.0,
        "end_to_end_uops_per_sec": round(
            stats["total_uops"] / (compile_s + simulate), 1)
        if compile_s + simulate else 0.0,
        "accelerated": _timecore.load() is not None,
    }


def run_mix_cell(mix_token: str = MIX_BENCHMARK,
                 instructions: int = MIX_INSTRUCTIONS,
                 seed: int = DEFAULT_SEED,
                 machine: Optional[MachineConfig] = None) -> Dict[str, object]:
    """Time one 4-core mix cell pair (baseline + ISA-assisted Watchdog).

    Member bundles are generated under the same per-member derived seeds the
    sweep engine uses, so the cell exercises exactly the ``repro run``
    multi-core path: sequential per-core warm-up, then the epoch-interleaved
    replay against the shared L2/L3/lock-cache backend.  The gated figure is
    µops per second of *simulate* wall time (generation reported
    separately), summed over both configurations and all cores.
    """
    from repro.sim.multicore import MultiCoreSimulator
    from repro.workloads.profiles import mix_member_seed, parse_mix_benchmark

    mix, members = parse_mix_benchmark(mix_token)
    t0 = time.perf_counter()
    bundles = [TraceBundle.generate(profile_name,
                                    seed=mix_member_seed(mix.name,
                                                         member_index, seed),
                                    instructions=instructions)
               for member_index, profile_name in members]
    generate_wall = time.perf_counter() - t0
    simulator = MultiCoreSimulator(machine=machine)
    total_uops = 0
    t0 = time.perf_counter()
    for _, config in MIX_CONFIGS:
        outcome = simulator.run_mix(mix_token, bundles, config)
        total_uops += outcome.timing.total_uops
    simulate_wall = time.perf_counter() - t0
    return {
        "mix": mix_token,
        "members": [profile_name for _, profile_name in members],
        "cores": len(members),
        "instructions": instructions,
        "configurations": [label for label, _ in MIX_CONFIGS],
        "total_uops": total_uops,
        "generate_seconds": round(generate_wall, 4),
        "simulate_seconds": round(simulate_wall, 4),
        "mix_uops_per_sec": round(total_uops / simulate_wall, 1)
        if simulate_wall else 0.0,
    }


def run_suite_cell(seed: int = DEFAULT_SEED, quick: bool = True) -> Dict[str, object]:
    """Time the full registered experiment suite through the generic runner.

    This is the registry fast path's regression gate: every grid experiment's
    spec merged into one deduplicated batch (plus the standalone tables and
    the Juliet suite), serial, cold, no persistent cache — exactly what
    ``repro run --all`` costs before any caching helps.  Throughput is
    *unique simulated cells* per wall second; a regression here means either
    the merge stopped deduplicating (more cells simulated) or the per-cell
    hot path slowed down.
    """
    from repro.experiments import REGISTRY, run_experiments
    from repro.experiments.common import ExperimentSettings
    from repro.sim.engine import SweepEngine

    settings = ExperimentSettings.quick() if quick else ExperimentSettings()
    if seed != settings.seed:
        settings = dataclasses.replace(settings, seed=seed)
    engine = SweepEngine()
    t0 = time.perf_counter()
    suite = run_experiments(list(REGISTRY), settings=settings, engine=engine)
    wall = time.perf_counter() - t0
    return {
        "experiments": len(suite.reports),
        "benchmarks": list(settings.benchmarks),
        "instructions": settings.instructions,
        "seed": settings.seed,
        "grid_cells_total": suite.engine["grid_cells_total"],
        "simulated_cells": engine.simulated_cells,
        "simulation_batches": engine.simulation_batches,
        "checks_ok": suite.ok,
        "wall_seconds": round(wall, 4),
        "suite_cells_per_sec": round(engine.simulated_cells / wall, 3)
        if wall else 0.0,
    }


def run_bench(benchmarks: Optional[Sequence[str]] = None,
              instructions: Optional[int] = None,
              seed: int = DEFAULT_SEED,
              quick: bool = False,
              sampling: Optional[SamplingConfig] = None,
              include_sampled: bool = True,
              include_fast_forward: bool = True,
              include_paper: bool = True,
              include_suite: bool = True,
              include_timecore: bool = True,
              include_mix: bool = True,
              include_one_b: bool = True) -> Dict[str, object]:
    """Run the benchmark cells and summarize.

    ``instructions=None`` selects the scale implied by ``quick``; an
    explicit count always wins.  ``sampling`` applies a §9.1 schedule to the
    whole matrix; independently, ``include_sampled`` appends the sampled
    long-profile cell (:func:`run_sampled_cell`) that regression-gates the
    sampling fast path, ``include_fast_forward`` the skip-window-only cell
    (:func:`run_fast_forward_cell`), ``include_paper`` the 100M
    paper-scale smoke cell (:func:`run_paper_cell` — deliberately not scaled
    down by ``quick``: completing the full paper horizon is the point), and
    ``include_suite`` the merged registry suite cell
    (:func:`run_suite_cell`, always at quick scale), and
    ``include_timecore`` the native-timing-core matrix cell
    (:func:`run_timecore_cell` — like the paper cell, never scaled down by
    ``quick``: the ``kernel_uops_per_sec`` floor describes the full matrix),
    and ``include_mix`` the 4-core mix cell (:func:`run_mix_cell`, scaled
    down by ``quick``) gating the shared-hierarchy interleaved replay, and
    ``include_one_b`` the billion-instruction streaming cell
    (:func:`run_one_b_cell` — never scaled down by ``quick``: completing the
    full 1B horizon in flat memory is the point; its schedule is already
    smoke-tier).

    Every cell record is stamped with ``peak_rss_mb`` — the process peak
    RSS as of that cell finishing (best-effort; absent where ``getrusage``
    is unavailable) — so ``BENCH_<rev>.json`` tracks the memory trajectory
    alongside throughput.
    """
    if quick:
        benchmarks = tuple(benchmarks or QUICK_BENCHMARKS)
        if instructions is None:
            instructions = QUICK_INSTRUCTIONS
    else:
        benchmarks = tuple(benchmarks or benchmark_names())
        if instructions is None:
            instructions = DEFAULT_INSTRUCTIONS
    def _stamped(cell: Dict[str, object]) -> Dict[str, object]:
        rss = peak_rss_mb()
        if rss is not None:
            cell["peak_rss_mb"] = rss
        return cell

    record: Dict[str, object] = {
        "revision": repo_revision(),
        "generated_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "matrix": {
            "name": "fig7-runtime-overhead",
            "benchmarks": list(benchmarks),
            "configurations": [label for label, _ in MATRIX_CONFIGS],
            "instructions": instructions,
            "seed": seed,
            "sampling": None if sampling is None
            else dataclasses.asdict(sampling),
        },
        "compiled": _stamped(run_matrix(benchmarks, instructions, seed,
                                        sampling=sampling)),
    }
    if include_sampled:
        record["sampled"] = _stamped(run_sampled_cell(
            instructions=SAMPLED_QUICK_INSTRUCTIONS if quick
            else SAMPLED_INSTRUCTIONS, seed=seed))
    if include_fast_forward:
        record["fast_forward"] = _stamped(run_fast_forward_cell(
            ops=FAST_FORWARD_QUICK_OPS if quick else FAST_FORWARD_OPS,
            seed=seed))
    if include_paper:
        record["paper_sampled"] = _stamped(run_paper_cell(seed=seed))
    if include_suite:
        record["suite"] = _stamped(run_suite_cell(seed=seed))
    if include_timecore:
        record["timecore"] = _stamped(run_timecore_cell(seed=seed))
    if include_mix:
        record["mix"] = _stamped(run_mix_cell(
            instructions=MIX_QUICK_INSTRUCTIONS if quick
            else MIX_INSTRUCTIONS, seed=seed))
    if include_one_b:
        record["one_b"] = _stamped(run_one_b_cell(seed=seed))
    record["kernels"] = kernel_statuses()
    record["degradations"] = [event.to_dict()
                              for event in kernel_degradation_events()]
    return record


def kernel_statuses() -> Dict[str, Dict[str, object]]:
    """Both native kernels' load statuses (probing them if not yet decided).

    Recorded on every bench record so a perf number can always be traced to
    the code path that produced it: a silently-failed kernel build shows up
    here (and as a degradation event) instead of masquerading as a
    regression of the hot path itself.
    """
    from repro.native import _timecore, build

    _timecore.load()
    _ffcore.load()
    return {name: status.to_dict()
            for name, status in sorted(build.statuses().items())}


def kernel_degradation_events():
    """Unexpected kernel unavailability, as structured degradation events."""
    from repro.experiments.common import kernel_degradation_events as probe

    return probe()


def write_record(record: Dict[str, object],
                 output: Optional[str] = None) -> Path:
    """Write the benchmark record to ``BENCH_<rev>.json`` (or ``output``)."""
    path = Path(output) if output else Path(f"BENCH_{record['revision']}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def check_against_baseline(record: Dict[str, object], baseline_path: str,
                           max_regression: float = 0.30) -> Tuple[bool, str]:
    """Compare measured µops/sec against a checked-in baseline.

    Returns (ok, message).  The baseline file stores the floor-setting
    ``uops_per_sec`` (typically measured on the slowest supported runner
    class); the check fails when throughput drops more than
    ``max_regression`` below it.  ``sampled_uops_per_sec``,
    ``fast_forward_ops_per_sec``, ``paper_sampled_uops_per_sec``,
    ``suite_cells_per_sec``, ``kernel_uops_per_sec``,
    ``compile_uops_per_sec``, ``mix_uops_per_sec`` and
    ``one_b_ops_per_sec`` baseline entries additionally gate the sampled
    long-profile cell, the skip-window-only fast-forward cell, the 100M
    paper-scale cell, the merged registry suite cell, the native-timecore
    matrix cell (simulate-phase and compile-phase throughput respectively),
    the 4-core mix cell and the billion-instruction streaming cell the same
    way.

    ``one_b_peak_rss_mb`` is a **ceiling**, not a floor: the check fails
    when the 1B streaming cell's recorded peak RSS *exceeds* it.  No
    tolerance is applied — the ceiling already carries its own headroom over
    the one-sample working figure, and the failure mode it guards against
    (samples being retained across the horizon) overshoots by gigabytes,
    not percent.  A record without the measurement (platforms where
    ``getrusage`` is unavailable) is reported as skipped.
    """
    data = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    checks = [("matrix", float(data["uops_per_sec"]),
               float(record["compiled"]["uops_per_sec"]), "uops/sec")]
    skipped = []
    #: (label, cell name, baseline key, record key within the cell, unit).
    optional_gates = (
        ("sampled", "sampled", "sampled_uops_per_sec", "uops_per_sec",
         "uops/sec"),
        ("fast_forward", "fast_forward", "fast_forward_ops_per_sec",
         "fast_forward_ops_per_sec", "ops/sec"),
        ("paper_sampled", "paper_sampled", "paper_sampled_uops_per_sec",
         "uops_per_sec", "uops/sec"),
        ("suite", "suite", "suite_cells_per_sec", "suite_cells_per_sec",
         "cells/sec"),
        ("timecore", "timecore", "kernel_uops_per_sec",
         "kernel_uops_per_sec", "uops/sec"),
        ("compile", "timecore", "compile_uops_per_sec",
         "compile_uops_per_sec", "uops/sec"),
        ("mix", "mix", "mix_uops_per_sec", "mix_uops_per_sec", "uops/sec"),
        ("one_b", "one_b", "one_b_ops_per_sec", "one_b_ops_per_sec",
         "ops/sec"),
    )
    for label, name, baseline_key, record_key, unit in optional_gates:
        floor = data.get(baseline_key)
        if floor is None:
            continue
        cell = record.get(name)
        if cell is not None:
            checks.append((label, float(floor), float(cell[record_key]), unit))
        else:
            # The baseline declares a floor but the record skipped the cell
            # (--no-sampled and friends): say so rather than silently pass.
            skipped.append(f"{label}: SKIPPED (no {name} cell in record)")
    #: (label, cell name, baseline key, record key, unit) — measured values
    #: must stay *at or below* the baseline; no tolerance is applied.
    ceiling_gates = (
        ("one_b_rss", "one_b", "one_b_peak_rss_mb", "peak_rss_mb", "MB"),
    )
    ceiling_checks = []
    for label, name, baseline_key, record_key, unit in ceiling_gates:
        ceiling = data.get(baseline_key)
        if ceiling is None:
            continue
        cell = record.get(name)
        if cell is None:
            skipped.append(f"{label}: SKIPPED (no {name} cell in record)")
        elif cell.get(record_key) is None:
            skipped.append(f"{label}: SKIPPED ({record_key} unavailable "
                           f"on this platform)")
        else:
            ceiling_checks.append((label, float(ceiling),
                                   float(cell[record_key]), unit))
    ok = True
    parts = []
    for name, baseline_rate, measured, unit in checks:
        floor = baseline_rate * (1.0 - max_regression)
        passed = measured >= floor
        ok = ok and passed
        parts.append(f"{name}: measured {measured:,.0f} {unit} vs baseline "
                     f"{baseline_rate:,.0f} (floor {floor:,.0f}, "
                     f"tolerance {max_regression:.0%}): "
                     f"{'OK' if passed else 'REGRESSION'}")
    for name, ceiling, measured, unit in ceiling_checks:
        passed = measured <= ceiling
        ok = ok and passed
        parts.append(f"{name}: measured {measured:,.0f} {unit} vs ceiling "
                     f"{ceiling:,.0f} (no tolerance): "
                     f"{'OK' if passed else 'EXCEEDED'}")
    return ok, "; ".join(parts + skipped)


def format_summary(record: Dict[str, object]) -> str:
    """Human-readable rendering of a benchmark record."""
    lines = [f"revision {record['revision']}  "
             f"matrix {record['matrix']['name']} "
             f"({len(record['matrix']['benchmarks'])} benchmarks x "
             f"{len(record['matrix']['configurations'])} configs, "
             f"{record['matrix']['instructions']} instructions)"]
    stats = record.get("compiled")
    if stats:
        phases = stats["phases_seconds"]
        phase_text = ", ".join(f"{name} {value:.2f}s"
                               for name, value in phases.items())
        lines.append(f"{'compiled':>10}: {stats['cells']} cells in "
                     f"{stats['wall_seconds']:.2f}s — "
                     f"{stats['uops_per_sec']:,.0f} uops/sec, "
                     f"{stats['cells_per_sec']:.2f} cells/sec ({phase_text})")
    for key in ("sampled", "paper_sampled"):
        sampled = record.get(key)
        if sampled:
            lines.append(
                f"{key:>13}: {sampled['benchmark']} "
                f"{sampled['instructions']:,} instructions, "
                f"{sampled['samples']} samples "
                f"({sampled['measured_instructions']:,} measured) — "
                f"{sampled['uops_per_sec']:,.0f} uops/sec "
                f"(generate {sampled['generate_seconds']:.2f}s, "
                f"simulate {sampled['simulate_seconds']:.2f}s)")
    one_b = record.get("one_b")
    if one_b:
        rss = one_b.get("peak_rss_mb")
        rss_text = f", peak RSS {rss:,.0f} MB" if rss is not None else ""
        lines.append(
            f"{'one-b':>13}: {one_b['benchmark']} "
            f"{one_b['instructions']:,} instructions streamed, "
            f"{one_b['samples']} samples "
            f"({one_b['measured_instructions']:,} measured) in "
            f"{one_b['wall_seconds']:.2f}s — "
            f"{one_b['one_b_ops_per_sec']:,.0f} ops/sec end to end"
            f"{rss_text}")
    fast_forward = record.get("fast_forward")
    if fast_forward:
        lines.append(
            f"{'fast-forward':>13}: {fast_forward['benchmark']} "
            f"{fast_forward['ops']:,} skipped ops in "
            f"{fast_forward['wall_seconds']:.2f}s — "
            f"{fast_forward['fast_forward_ops_per_sec']:,.0f} ops/sec "
            f"({'native kernel' if fast_forward['accelerated'] else 'pure python'})")
    timecore = record.get("timecore")
    if timecore:
        compile_rate = timecore.get("compile_uops_per_sec")
        compile_text = (f", {compile_rate:,.0f} uops/sec in compile"
                        if compile_rate else "")
        lines.append(
            f"{'timecore':>13}: {timecore['cells']} cells, "
            f"{timecore['total_uops']:,} uops "
            f"(simulate {timecore['simulate_seconds']:.2f}s of "
            f"{timecore['wall_seconds']:.2f}s) — "
            f"{timecore['kernel_uops_per_sec']:,.0f} uops/sec in kernel"
            f"{compile_text} "
            f"({'native kernel' if timecore['accelerated'] else 'pure python'})")
    mix = record.get("mix")
    if mix:
        lines.append(
            f"{'mix':>13}: {mix['mix']} ({mix['cores']} cores: "
            f"{'+'.join(mix['members'])}), "
            f"{mix['instructions']} instructions/core, "
            f"{mix['total_uops']:,} uops over "
            f"{len(mix['configurations'])} configs — "
            f"{mix['mix_uops_per_sec']:,.0f} uops/sec "
            f"(generate {mix['generate_seconds']:.2f}s, "
            f"simulate {mix['simulate_seconds']:.2f}s)")
    suite = record.get("suite")
    if suite:
        lines.append(
            f"{'suite':>13}: {suite['experiments']} experiments, "
            f"{suite['simulated_cells']} unique cells "
            f"(of {suite['grid_cells_total']} grid cells) in "
            f"{suite['simulation_batches']} batch(es), "
            f"{suite['wall_seconds']:.2f}s — "
            f"{suite['suite_cells_per_sec']:.2f} cells/sec")
    kernels = record.get("kernels")
    if kernels:
        parts = []
        for name, status in kernels.items():
            if status.get("available"):
                state = "native"
            elif status.get("disabled"):
                state = "disabled"
            else:
                state = f"UNAVAILABLE ({status.get('reason', 'unknown')})"
            parts.append(f"{name}={state}")
        lines.append(f"{'kernels':>13}: " + ", ".join(parts))
    for event in record.get("degradations") or ():
        lines.append(f"{'degraded':>13}: {event.get('kind')}: "
                     f"{event.get('subject')} — {event.get('detail')}")
    return "\n".join(lines)
