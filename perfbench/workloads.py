"""The benchmark's workloads and one measured pass over a workload.

A pass is what one fresh process does (see ``worker.py``): build the
workload's :class:`~repro.experiments.common.ExperimentSettings` from the
seed, run its experiments through :func:`repro.experiments.run_experiments`
on a serial :class:`~repro.sim.engine.SweepEngine` with an empty result
cache, and record the timed region, the simulated work, a digest of every
cell's simulated counters and the paper-check error.  Outside the timed
region a held-out cell or sample is replayed with the pure-Python timing
loops (``Simulator(timecore=False)``) as an oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import repro.experiments
from repro.core.config import WatchdogConfig
from repro.experiments import REGISTRY
from repro.experiments.common import ExperimentSettings
from repro.sim import bench
from repro.sim.cache import ResultCache
from repro.sim.engine import SweepEngine
from repro.sim.results import CellResult
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import Simulator
from repro.sim.spec import request_content_key
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import parse_mix_benchmark
from repro.workloads.streaming import SampleStream

from perfbench import tracing

LONG_BENCHMARKS = ("mcf-long", "gcc-long", "lbm-long", "perl-long")
ORACLE_LABEL = "isa-assisted"


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: Tuple[str, ...]
    settings: Callable[[int], ExperimentSettings]
    #: ``(settings, resolved cells) -> (ok, detail)``, run untimed.
    oracle: Callable[[ExperimentSettings, Dict], Tuple[bool, str]]


def _cell_equal(a: CellResult, b: CellResult) -> bool:
    return a.relabel("", "").to_dict() == b.relabel("", "").to_dict()


def _held_out(settings: ExperimentSettings) -> str:
    return settings.benchmarks[settings.seed % len(settings.benchmarks)]


def oracle_cell(settings: ExperimentSettings,
                cells: Dict) -> Tuple[bool, str]:
    """Replay one held-out unsampled cell with the Python timing loops and
    require the cell the timed run produced."""
    benchmark = _held_out(settings)
    timed = cells.get((benchmark, ORACLE_LABEL))
    if timed is None:
        return False, f"timed run has no {benchmark}/{ORACLE_LABEL} cell"
    bundle = TraceBundle.generate(benchmark, seed=settings.seed,
                                  instructions=settings.instructions)
    outcome = Simulator(timecore=False).run_bundle(
        bundle, WatchdogConfig.isa_assisted_uaf())
    replayed = CellResult.from_outcome(outcome, label=ORACLE_LABEL)
    return _cell_equal(replayed, timed), \
        f"{benchmark}/{ORACLE_LABEL} cell, Python loops vs timed run"


def oracle_sample(settings: ExperimentSettings,
                  cells: Dict) -> Tuple[bool, str]:
    """Regenerate sample 0 of one held-out benchmark on demand
    (``SampleStream.segment``) and require the Python timing loops and the
    native path to agree on it."""
    benchmark = _held_out(settings)
    stream = SampleStream(benchmark, settings.seed, settings.instructions,
                          settings.sampling)
    segment = stream.segment(0)
    config = WatchdogConfig.isa_assisted_uaf()
    python, native = (
        CellResult.from_outcome(simulator.sample_outcome(
            stream.segment_bundle(segment), 0, config))
        for simulator in (Simulator(timecore=False), Simulator()))
    return _cell_equal(python, native), \
        f"{benchmark} sample 0/{ORACLE_LABEL}, Python loops vs native"


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="suite",
        experiments=tuple(REGISTRY),
        settings=lambda seed: ExperimentSettings(seed=seed),
        oracle=oracle_cell),
    Workload(
        name="paper-stream",
        experiments=("fig7",),
        settings=lambda seed: ExperimentSettings(
            benchmarks=(bench.PAPER_BENCHMARK,),
            instructions=bench.PAPER_INSTRUCTIONS, seed=seed,
            sampling=bench.PAPER_SMOKE_SAMPLING),
        oracle=oracle_sample),
    Workload(
        name="long-sampled",
        experiments=("fig7",),
        settings=lambda seed: ExperimentSettings(
            benchmarks=LONG_BENCHMARKS, instructions=1_000_000, seed=seed,
            sampling=SamplingConfig.quick()),
        oracle=oracle_sample),
)}


class RecordingEngine(SweepEngine):
    """A serial engine that keeps every resolved cell and job horizon."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.cells: Dict = {}
        self.unique: Dict = {}
        self.jobs: set = set()

    def run_requests(self, requests):
        requests = list(requests)
        resolved = super().run_requests(requests)
        self.cells.update(resolved)
        for request in requests:
            self.unique.setdefault(request_content_key(request),
                                   resolved[request.key])
            self.jobs.add((request.benchmark, request.seed,
                           request.instructions, request.warmup_instructions,
                           request.sampling))
        return resolved


def model_digest(cells: Dict) -> str:
    """SHA-256 over every resolved cell's simulated counters."""
    rows = [[benchmark, label, cell.to_dict()]
            for (benchmark, label), cell in sorted(cells.items())]
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def horizon_instructions(jobs) -> int:
    """Requested instructions summed over jobs (per core for a mix)."""
    total = 0
    for benchmark, _, instructions, _, _ in jobs:
        parsed = parse_mix_benchmark(benchmark)
        total += instructions * (len(parsed[1]) if parsed else 1)
    return total


def paper_error_pp(suite) -> Tuple[int, float, int]:
    """(failed checks, mean |measured - expected| in points over the
    percentage-valued checks, number of those checks)."""
    checks = [check for report in suite.reports for check in report.checks]
    percent = [check for check in checks
               if "percent" in check.metric and check.measured is not None]
    error = sum(abs(check.deviation) for check in percent) / len(percent) \
        if percent else float("nan")
    return sum(not check.ok for check in checks), error, len(percent)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_kernels() -> Dict[str, bool]:
    """Load (building on first use) both native kernels; name -> loaded."""
    from repro.native import _timecore
    from repro.workloads import _ffcore

    return {"timecore": _timecore.load() is not None,
            "ffcore": _ffcore.load() is not None}


def setup_only(workload: Workload, seed: int) -> Dict[str, object]:
    """Just the set-up of a pass: kernels loaded, settings built."""
    load_kernels()
    workload.settings(seed)
    return {"entered_epoch_s": time.time()}


def run_pass(workload: Workload, seed: int, scratch: Path,
             trace_path: Optional[Path] = None, oracle: bool = True,
             engine_kwargs: Optional[Dict] = None) -> Dict[str, object]:
    """One measured pass in this process; returns its JSON-ready record.

    ``trace_path`` turns on the span recorder (per-layer metrics, and the
    Chrome trace written there).  ``engine_kwargs`` reach the engine (the
    tests inject faults through it).
    """
    root = None
    with (tracing.Tracer() if trace_path is not None
          else contextlib.nullcontext()) as tracer:
        kernels = load_kernels()
        settings = workload.settings(seed)
        scratch.mkdir(parents=True, exist_ok=True)
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        try:
            engine = RecordingEngine(workers=1, cache=ResultCache(cache_dir),
                                     **(engine_kwargs or {}))
            if tracer is not None:
                root = tracer.recorder.open("benchmark.pass")
            entered = time.time()
            started = time.perf_counter()
            cpu_started = time.process_time()
            suite = repro.experiments.run_experiments(
                list(workload.experiments), settings=settings, engine=engine)
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu_started
            if root is not None:
                tracer.recorder.close(root)
            rss = peak_rss_mb()
            engine.close()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    checks_failed, error_pp, percent_checks = paper_error_pp(suite)
    record: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "kernels": kernels,
        "entered_epoch_s": entered,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "unique_cells": len(engine.unique),
        "simulated_cells": engine.simulated_cells,
        "cell_failures": len(engine.cell_failures),
        "total_uops": sum(cell.total_uops for cell in engine.unique.values()),
        "horizon_instructions": horizon_instructions(engine.jobs),
        "grid_cells": suite.engine["grid_cells_total"],
        "sweep_s": suite.engine["sweep_seconds"],
        "degradations": len(suite.degradations),
        "model_digest": model_digest(engine.cells),
        "paper_checks_failed": checks_failed,
        "paper_err_pp": error_pp,
        "percent_checks": percent_checks,
    }
    if oracle:
        ok, detail = workload.oracle(settings, engine.cells)
        record["oracle_ok"], record["oracle"] = ok, detail
    if tracer is not None:
        spans = tracer.recorder.spans
        record["layers"] = tracing.per_layer_metrics(spans, root)
        record["layers"]["engine.dedup_ratio"] = \
            record["grid_cells"] / max(record["unique_cells"], 1)
        record["layers"]["engine.degradations"] = record["degradations"]
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(tracing.chrome_trace(spans)))
    return record
