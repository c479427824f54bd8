"""Figure 7: runtime overhead of use-after-free checking.

The paper reports 25% geometric-mean slowdown with conservative pointer
identification and 15% with ISA-assisted identification (lock location cache
enabled in both).  §9.3 additionally reports that idealizing the shadow
accesses (no misses, no cache pollution) lowers the ISA-assisted overhead
from 15% to 11%, isolating the cache-pressure component.
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

NAME = "fig7-runtime-overhead"
CONSERVATIVE = "conservative"
ISA_ASSISTED = "isa-assisted"
IDEAL_SHADOW = "ideal-shadow"


def spec(settings: Optional[ExperimentSettings] = None) -> ExperimentSpec:
    """The Figure 7 grid: both identification policies (+ §9.3 ablation)."""
    return ExperimentSpec.build(NAME, {
        CONSERVATIVE: WatchdogConfig.conservative_uaf(),
        ISA_ASSISTED: WatchdogConfig.isa_assisted_uaf(),
        IDEAL_SHADOW: WatchdogConfig.idealized_shadow(),
    }, settings=settings)


def extract(context: ExperimentContext) -> ExperimentResult:
    """Per-benchmark slowdown and geo-mean for each identification policy."""
    result = ExperimentResult(name=context.spec.name)
    for label, _ in context.spec.configs:
        overheads = context.overheads(label)
        for benchmark, overhead in overheads.items():
            result.add_value(label, benchmark, 100.0 * overhead)
        result.add_summary(f"{label}_geomean_percent",
                           100.0 * geometric_mean_overhead(list(overheads.values())))
    result.notes.append(
        "paper geo-means: conservative 25%, ISA-assisted 15%, idealized shadow 11%")
    return result


DEFINITION = ExperimentDefinition(
    name="fig7",
    title=NAME,
    description="Figure 7 — runtime overhead of use-after-free checking",
    build_spec=spec,
    extract=extract,
    expected={
        f"{CONSERVATIVE}_geomean_percent": 25.0,
        f"{ISA_ASSISTED}_geomean_percent": 15.0,
        f"{IDEAL_SHADOW}_geomean_percent": 11.0,
    },
    tolerances={
        f"{CONSERVATIVE}_geomean_percent": 15.0,
        f"{ISA_ASSISTED}_geomean_percent": 8.0,
        # At reduced scale the idealized shadow removes nearly all of the
        # cache-pressure component, so the measured value sits well below
        # the paper's 11%.  The symmetric ±11 band therefore accepts the
        # whole 0–22% range: it only catches runaway ideal-shadow overhead,
        # not a silently disabled idealization (that regression is caught by
        # the registry golden test's exact pins instead).
        f"{IDEAL_SHADOW}_geomean_percent": 11.0,
    },
)
