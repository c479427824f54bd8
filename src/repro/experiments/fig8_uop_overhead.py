"""Figure 8: µop overhead and its breakdown.

With ISA-assisted pointer identification, Watchdog executes 44% more µops
than the baseline on average.  The breakdown (as a fraction of baseline
µops): checks ≈29%, pointer metadata loads ≈4%, pointer metadata stores ≈2%,
and the remaining µops (identifier propagation selects, stack-frame
identifier management and allocator instrumentation) ≈9%.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import WatchdogConfig
from repro.experiments.common import (
    ExperimentContext,
    ExperimentDefinition,
    ExperimentSettings,
    ExperimentSpec,
)
from repro.sim.results import ExperimentResult
from repro.sim.stats import arithmetic_mean

NAME = "fig8-uop-overhead"
ISA_ASSISTED = "isa-assisted"
SEGMENTS = ("checks", "pointer_loads", "pointer_stores", "other")


def spec(settings: Optional[ExperimentSettings] = None) -> ExperimentSpec:
    """The Figure 8 grid: the ISA-assisted configuration, no baseline needed."""
    return ExperimentSpec.build(NAME, {
        ISA_ASSISTED: WatchdogConfig.isa_assisted_uaf(),
    }, settings=settings, include_baseline=False)


def extract(context: ExperimentContext) -> ExperimentResult:
    """Per-benchmark µop overhead breakdown (ISA-assisted)."""
    result = ExperimentResult(name=context.spec.name)
    per_segment_totals: Dict[str, list] = {segment: [] for segment in SEGMENTS}
    totals = []
    for benchmark in context.settings.benchmarks:
        outcome = context.cells[benchmark, ISA_ASSISTED]
        breakdown = outcome.uop_breakdown()
        total = outcome.uop_overhead_fraction()
        totals.append(total)
        result.add_value("total", benchmark, 100.0 * total)
        for segment in SEGMENTS:
            value = breakdown[segment]
            per_segment_totals[segment].append(value)
            result.add_value(segment, benchmark, 100.0 * value)

    result.add_summary("total_avg_percent", 100.0 * arithmetic_mean(totals))
    for segment in SEGMENTS:
        result.add_summary(f"{segment}_avg_percent",
                           100.0 * arithmetic_mean(per_segment_totals[segment]))
    result.notes.append(
        "paper averages: total 44%, checks 29%, pointer loads 4%, "
        "pointer stores 2%, other 9%")
    return result


DEFINITION = ExperimentDefinition(
    name="fig8",
    title=NAME,
    description="Figure 8 — µop overhead and its breakdown (ISA-assisted)",
    build_spec=spec,
    extract=extract,
    expected={
        "total_avg_percent": 44.0,
        "checks_avg_percent": 29.0,
        "pointer_loads_avg_percent": 4.0,
        "pointer_stores_avg_percent": 2.0,
        "other_avg_percent": 9.0,
    },
    tolerances={
        "total_avg_percent": 15.0,
        "checks_avg_percent": 10.0,
        "pointer_loads_avg_percent": 4.0,
        "pointer_stores_avg_percent": 2.5,
        "other_avg_percent": 6.0,
    },
)
