"""Figure 9: effect of the lock location cache.

With the dedicated 4KB lock location cache, ISA-assisted Watchdog's overhead
is 15% (geometric mean).  Without it, check µops compete with program loads
for the two data-cache ports and the overhead rises to 24%.  The paper also
notes the lock location cache's miss rate stays below 1 miss per 1000
instructions for seventeen of the twenty benchmarks.
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

NAME = "fig9-lock-location-cache"
WITH_CACHE = "with-lock-cache"
WITHOUT_CACHE = "without-lock-cache"


def spec(settings: Optional[ExperimentSettings] = None) -> ExperimentSpec:
    """The Figure 9 grid: ISA-assisted with and without the lock cache."""
    return ExperimentSpec.build(NAME, {
        WITH_CACHE: WatchdogConfig.isa_assisted_uaf(),
        WITHOUT_CACHE: WatchdogConfig.no_lock_cache(),
    }, settings=settings)


def extract(context: ExperimentContext) -> ExperimentResult:
    """Overhead with and without the lock location cache, plus miss rates."""
    result = ExperimentResult(name=context.spec.name)
    for label, _ in context.spec.configs:
        overheads = context.overheads(label)
        for benchmark, overhead in overheads.items():
            result.add_value(label, benchmark, 100.0 * overhead)
        result.add_summary(f"{label}_geomean_percent",
                           100.0 * geometric_mean_overhead(list(overheads.values())))

    # Lock cache miss rate (misses per kilo-instruction) per benchmark.
    low_mpki_benchmarks = 0
    for benchmark in context.settings.benchmarks:
        outcome = context.cells[benchmark, WITH_CACHE]
        mpki = (1000.0 * outcome.lock_cache_misses
                / max(outcome.total_uops, 1))
        result.add_value("lock_cache_mpki", benchmark, mpki)
        if mpki < 1.0:
            low_mpki_benchmarks += 1
    result.add_summary("benchmarks_below_1_mpki", float(low_mpki_benchmarks))

    result.notes.append("paper geo-means: with cache 15%, without cache 24%; "
                        "17/20 benchmarks below 1 lock-cache miss per 1000 instructions")
    return result


DEFINITION = ExperimentDefinition(
    name="fig9",
    title=NAME,
    description="Figure 9 — effect of the lock location cache",
    build_spec=spec,
    extract=extract,
    # benchmarks_below_1_mpki is deliberately unchecked: it scales with the
    # benchmark count, so a subset sweep would always "fail" the paper's
    # 17-of-20 figure.
    expected={
        f"{WITH_CACHE}_geomean_percent": 15.0,
        f"{WITHOUT_CACHE}_geomean_percent": 24.0,
    },
    tolerances={
        f"{WITH_CACHE}_geomean_percent": 8.0,
        f"{WITHOUT_CACHE}_geomean_percent": 12.0,
    },
)
