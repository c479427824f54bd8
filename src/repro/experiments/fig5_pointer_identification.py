"""Figure 5: fraction of memory accesses classified as pointer operations.

The paper reports that the conservative heuristic (§5.1) classifies 31% of
memory accesses as potential pointer loads/stores on average, and that
ISA-assisted identification (§5.2) reduces that to 18%.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import WatchdogConfig
from repro.experiments.common import (
    ExperimentContext,
    ExperimentDefinition,
    ExperimentSettings,
    ExperimentSpec,
)
from repro.sim.results import ExperimentResult
from repro.sim.stats import arithmetic_mean

NAME = "fig5-pointer-identification"
CONSERVATIVE = "conservative"
ISA_ASSISTED = "isa-assisted"


def spec(settings: Optional[ExperimentSettings] = None) -> ExperimentSpec:
    """The Figure 5 grid: both identification policies, no baseline needed."""
    return ExperimentSpec.build(NAME, {
        CONSERVATIVE: WatchdogConfig.conservative_uaf(),
        ISA_ASSISTED: WatchdogConfig.isa_assisted_uaf(),
    }, settings=settings, include_baseline=False)


def extract(context: ExperimentContext) -> ExperimentResult:
    """Pointer-classification fractions per benchmark and policy."""
    result = ExperimentResult(name=context.spec.name)
    for label, _ in context.spec.configs:
        for benchmark in context.settings.benchmarks:
            result.add_value(
                label, benchmark,
                100.0 * context.cells[benchmark, label].pointer_fraction)
    conservative_avg = arithmetic_mean(list(result.series[CONSERVATIVE].values()))
    isa_avg = arithmetic_mean(list(result.series[ISA_ASSISTED].values()))
    result.add_summary("conservative_avg_percent", conservative_avg)
    result.add_summary("isa_assisted_avg_percent", isa_avg)
    paper = DEFINITION.expected
    result.notes.append(
        f"paper: conservative {paper['conservative_avg_percent']:.0f}%, "
        f"ISA-assisted {paper['isa_assisted_avg_percent']:.0f}% (averages)")
    return result


DEFINITION = ExperimentDefinition(
    name="fig5",
    title=NAME,
    description="Figure 5 — fraction of memory accesses classified as "
                "pointer operations",
    build_spec=spec,
    extract=extract,
    # Paper values (percent of memory accesses classified as pointer ops).
    expected={
        "conservative_avg_percent": 31.0,
        "isa_assisted_avg_percent": 18.0,
    },
    tolerances={
        "conservative_avg_percent": 10.0,
        "isa_assisted_avg_percent": 8.0,
    },
)
