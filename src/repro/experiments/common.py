"""Shared experiment infrastructure: the declarative registry and its runner.

Every module in :mod:`repro.experiments` *declares* itself as an
:class:`ExperimentDefinition` — its CLI name, grid builder, per-benchmark
metric extractor, the paper's expected values with tolerances, and an
optional render hook — and registers it in ``repro.experiments.REGISTRY``.
One generic runner (:func:`run_experiments`) then serves every experiment:

1. the grid-based experiments' specs are fused into one deduplicated
   super-spec (:class:`~repro.sim.spec.MergedGrid`) and resolved by the
   :class:`~repro.sim.engine.SweepEngine` in a single batch, so cells shared
   between figures (the ISA-assisted run feeds Figures 7–11, every slowdown
   figure wants the baseline) are simulated exactly once and the worker pool
   stays saturated across figure boundaries,
2. each experiment's extractor turns its slice of the resolved cells into an
   :class:`~repro.sim.results.ExperimentResult`, reading them (and their
   overheads, :meth:`ExperimentContext.overheads` and
   :meth:`ExperimentContext.overhead_result`) from its
   :class:`ExperimentContext` — extraction never goes back to the engine,
3. every summary metric is checked against the paper's expected value within
   its tolerance, and the whole invocation is summarized as a
   :class:`~repro.sim.results.SuiteReport` — the CLI's JSON artifact and its
   exit code both come from that record.

This runner is the only way a registered experiment runs: ``repro run``,
``repro bench``'s suite cell and the tests all call :func:`run_experiments`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sim.engine import SweepEngine
from repro.sim.results import (
    CellResult,
    ExperimentReport,
    ExperimentResult,
    MetricCheck,
    SuiteReport,
)
from repro.sim.spec import (
    BASELINE_LABEL,
    DEFAULT_INSTRUCTIONS,
    DEFAULT_SEED,
    ExperimentSettings,
    ExperimentSpec,
    MergedGrid,
    request_content_key,
)
from repro.sim.stats import geometric_mean_overhead

__all__ = [
    "DEFAULT_INSTRUCTIONS",
    "DEFAULT_SEED",
    "ExperimentContext",
    "ExperimentDefinition",
    "ExperimentSettings",
    "ExperimentSpec",
    "kernel_degradation_events",
    "run_experiments",
]

#: Sampling tiers a grid experiment supports out of the box: its cells run
#: unsampled, under the §9.1 schedules, and over the long/paper profiles —
#: all through :class:`ExperimentSettings`, no driver code involved.
GRID_SAMPLING_TIERS = ("none", "quick", "paper", "paper-scaled")
#: Standalone experiments (tables, Juliet) have no timing grid; sampling
#: does not apply to them.
NO_SAMPLING_TIERS = ("none",)


@dataclass
class ExperimentContext:
    """Everything an experiment's extractor may read.

    Grid experiments get their spec and its resolved cells, keyed by
    (benchmark, label); standalone experiments get only the settings and run
    their own machinery.
    """

    settings: ExperimentSettings
    spec: Optional[ExperimentSpec] = None
    cells: Dict[Tuple[str, str], CellResult] = field(default_factory=dict)

    def overheads(self, label: str) -> Dict[str, float]:
        """Per-benchmark fractional slowdown of ``label`` over the baseline,
        in ``settings.benchmarks`` order; NaN for a failed cell (see
        :meth:`~repro.sim.results.CellResult.overhead_vs`)."""
        return {benchmark: self.cells[benchmark, label].overhead_vs(
                    self.cells[benchmark, BASELINE_LABEL])
                for benchmark in self.settings.benchmarks}

    def overhead_result(self, summary_keys: Optional[Mapping[str, str]] = None
                        ) -> ExperimentResult:
        """A result with, per configuration of the spec, its per-benchmark
        overheads in percent (a series named by its label) and their
        geometric mean (the summary ``summary_keys[label]``, by default
        ``f"{label}_geomean_percent"``) — Figures 7, 9 and 11 and the
        ablations."""
        summary_keys = summary_keys or {}
        result = ExperimentResult(name=self.spec.name)
        for label, _ in self.spec.configs:
            overheads = self.overheads(label)
            for benchmark, overhead in overheads.items():
                result.add_value(label, benchmark, 100.0 * overhead)
            result.add_summary(
                summary_keys.get(label, f"{label}_geomean_percent"),
                100.0 * geometric_mean_overhead(list(overheads.values())))
        return result


@dataclass(frozen=True)
class ExperimentDefinition:
    """One experiment, declaratively: what to run, extract, expect, render.

    ``build_spec`` is ``None`` for standalone experiments (the derived
    tables, the Juliet detection suite); everything else describes a
    (benchmark × configuration) grid the generic runner merges, executes and
    hands back to ``extract``.
    """

    #: CLI name (``repro run fig7``).
    name: str
    #: Result/record title (``fig7-runtime-overhead``).
    title: str
    #: One-line description for ``repro list`` and the README table.
    description: str
    #: Turns the resolved context into the experiment's result record.
    extract: Callable[[ExperimentContext], ExperimentResult]
    #: Builds the experiment's grid from the sweep settings; ``None`` marks
    #: a standalone experiment.
    build_spec: Optional[Callable[[ExperimentSettings], ExperimentSpec]] = None
    #: Paper-expected summary values, keyed by the summary metric name.
    expected: Mapping[str, float] = field(default_factory=dict)
    #: Allowed absolute deviation per metric (same units as the metric;
    #: missing keys default to exact agreement).  Wide enough to absorb the
    #: reproduction's scale dependence, tight enough that a broken pipeline
    #: (zero overhead, runaway injection) trips the check.
    tolerances: Mapping[str, float] = field(default_factory=dict)
    #: Optional custom text rendering; default is the result's table.
    render: Optional[Callable[[ExperimentResult], str]] = None
    #: Sampling tiers this experiment supports (for docs/CLI listing).
    sampling_tiers: Tuple[str, ...] = GRID_SAMPLING_TIERS

    @property
    def has_grid(self) -> bool:
        return self.build_spec is not None

    def evaluate(self, result: ExperimentResult) -> List[MetricCheck]:
        """Compare the result's summary metrics against the paper's values."""
        return [MetricCheck(metric=metric, expected=float(value),
                            tolerance=float(self.tolerances.get(metric, 0.0)),
                            measured=result.summary.get(metric))
                for metric, value in self.expected.items()]

    def render_result(self, result: ExperimentResult) -> str:
        if self.render is not None:
            return self.render(result)
        return result.format_table()


def run_experiments(names: Sequence[str],
                    settings: Optional[ExperimentSettings] = None,
                    engine: Optional[SweepEngine] = None) -> SuiteReport:
    """The generic runner: execute any set of registered experiments.

    All requested grids are merged into one deduplicated super-spec and
    resolved in a single engine batch before any experiment extracts its
    metrics; standalone experiments run afterwards.  Returns the full
    :class:`~repro.sim.results.SuiteReport` — per-experiment results,
    paper-vs-measured checks, and engine/cell provenance.  Without an
    ``engine`` the run gets a serial, uncached one.
    """
    from repro.experiments import get_definition

    settings = settings or ExperimentSettings()
    engine = engine or SweepEngine()
    definitions = [get_definition(name) for name in names]

    specs: Dict[str, ExperimentSpec] = {
        definition.name: definition.build_spec(settings)
        for definition in definitions if definition.has_grid}
    merged = MergedGrid.merge(list(specs.values()))
    started = time.perf_counter()
    grids = engine.run_specs(merged) if specs else {}
    sweep_elapsed = time.perf_counter() - started

    reports: List[ExperimentReport] = []
    for definition in definitions:
        t0 = time.perf_counter()
        if definition.has_grid:
            spec = specs[definition.name]
            context = ExperimentContext(settings=settings, spec=spec,
                                        cells=grids[spec.name])
            provenance = {
                "grid_cells": len(spec),
                "unique_cells": len({request_content_key(r)
                                     for r in spec.requests()}),
            }
        else:
            context = ExperimentContext(settings=settings)
            provenance = {"grid_cells": 0, "unique_cells": 0}
        result = definition.extract(context)
        reports.append(ExperimentReport(
            name=definition.name, result=result,
            checks=definition.evaluate(result),
            elapsed_seconds=time.perf_counter() - t0,
            provenance=provenance))

    engine_stats = {
        "experiments": len(definitions),
        "grid_cells_total": merged.total_grid_cells(),
        "merged_unique_cells": len(merged),
        "simulated_cells": engine.simulated_cells,
        "simulation_batches": engine.simulation_batches,
        "cache_hits": engine.cache.hits if engine.cache is not None else 0,
        "pool_rebuilds": engine.pool_rebuilds,
        "cell_failures": len(engine.cell_failures),
        "degradation_events": len(engine.degradations),
        "workers": engine.workers,
        "sweep_seconds": round(sweep_elapsed, 4),
    }
    return SuiteReport(reports=reports,
                       settings=describe_settings(settings),
                       engine=engine_stats,
                       degradations=kernel_degradation_events()
                       + list(engine.degradations),
                       cell_failures=list(engine.cell_failures))


def kernel_degradation_events() -> List["DegradationEvent"]:
    """Native kernels that should be running in this process but are not.

    Probes both kernel loaders (their decisions are memoized, so this is
    free after the first call) and maps each *unexpected* unavailability —
    anything other than a deliberate kill switch — to a
    ``kernel-unavailable`` :class:`~repro.sim.results.DegradationEvent`.
    Worker processes make their own load decisions, but they run the same
    code against the same environment and artifact cache, so the parent's
    probe is representative of the fleet.
    """
    from repro.native import _timecore, build
    from repro.sim.results import DegradationEvent
    from repro.workloads import _ffcore

    _timecore.load()
    _ffcore.load()
    return [DegradationEvent(
                kind="kernel-unavailable", subject=name,
                detail=f"{status.reason}; running the pure-Python fallback")
            for name, status in sorted(build.unexpected_failures().items())]


def describe_settings(settings: ExperimentSettings) -> Dict[str, object]:
    """JSON-friendly record of the settings a suite ran under."""
    import dataclasses as _dataclasses

    return {
        "benchmarks": list(settings.benchmarks),
        "instructions": settings.instructions,
        "seed": settings.seed,
        "sampling": None if settings.sampling is None
        else _dataclasses.asdict(settings.sampling),
    }
