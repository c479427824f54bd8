"""Figure 11: integrating bounds checking (full memory safety).

Extending Watchdog with pointer-based bounds checking (§8) widens the
per-pointer metadata to 256 bits and either fuses the bound comparison into
the existing check µop or injects a second bounds-check µop per memory
access.  The paper reports: use-after-free only 15%, +bounds as a single
fused µop 18%, +bounds as a separate µop 24% (geometric means, ISA-assisted
identification).
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
from repro.sim.stats import geometric_mean_overhead

NAME = "fig11-bounds-checking"
WATCHDOG = "watchdog"
BOUNDS_FUSED = "bounds-1uop"
BOUNDS_TWO_UOPS = "bounds-2uop"


def spec(settings: Optional[ExperimentSettings] = None) -> ExperimentSpec:
    """The Figure 11 grid: UAF-only plus both bounds-checking variants."""
    return ExperimentSpec.build(NAME, {
        WATCHDOG: WatchdogConfig.isa_assisted_uaf(),
        BOUNDS_FUSED: WatchdogConfig.full_safety_fused(),
        BOUNDS_TWO_UOPS: WatchdogConfig.full_safety_two_uops(),
    }, settings=settings)


def extract(context: ExperimentContext) -> ExperimentResult:
    """Overhead of the three checking configurations."""
    result = ExperimentResult(name=context.spec.name)
    summary_keys = {
        WATCHDOG: "watchdog_geomean_percent",
        BOUNDS_FUSED: "bounds_fused_geomean_percent",
        BOUNDS_TWO_UOPS: "bounds_two_uop_geomean_percent",
    }
    for label, _ in context.spec.configs:
        overheads = context.overheads(label)
        for benchmark, overhead in overheads.items():
            result.add_value(label, benchmark, 100.0 * overhead)
        result.add_summary(summary_keys[label],
                           100.0 * geometric_mean_overhead(list(overheads.values())))

    result.notes.append("paper geo-means: Watchdog 15%, +bounds (1 µop) 18%, "
                        "+bounds (2 µops) 24%")
    return result


DEFINITION = ExperimentDefinition(
    name="fig11",
    title=NAME,
    description="Figure 11 — integrating bounds checking (full memory safety)",
    build_spec=spec,
    extract=extract,
    expected={
        "watchdog_geomean_percent": 15.0,
        "bounds_fused_geomean_percent": 18.0,
        "bounds_two_uop_geomean_percent": 24.0,
    },
    tolerances={
        "watchdog_geomean_percent": 8.0,
        "bounds_fused_geomean_percent": 8.0,
        "bounds_two_uop_geomean_percent": 10.0,
    },
)
