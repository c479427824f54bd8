"""Multi-core mixes: Watchdog overhead and lock-cache contention vs core count.

The paper's evaluation is single-core; this experiment extends it with the
standard multiprogrammed-mix methodology: four-application bundles of the
existing SPEC-like profiles (``mix1``–``mix7`` in
:mod:`repro.workloads.profiles`, MPKI-ordered) run on 1, 2 and 4 cores that
share the L2, the inclusive L3 and the 4KB lock location cache while keeping
private L1s and TLBs (:class:`~repro.sim.multicore.MultiCoreSimulator`).

Reported per mix:

* **overhead vs core count** — the geometric-mean slowdown of ISA-assisted
  Watchdog over the unprotected baseline at 1 core (each member solo), 2
  cores (first two members) and 4 cores (the full mix),
* **lock-cache contention** — the mix's lock-location-cache misses per 1000
  µops minus the aggregate solo MPKI of its members: the misses caused purely
  by cross-core contention for the shared 4KB cache,
* **per-core attribution** — each core's IPC and attributed lock-cache MPKI
  (from the mix cell's :class:`~repro.sim.results.CoreResult` blocks).

There are no paper-expected values (the paper has no multi-core numbers), so
the experiment carries no metric checks; it exists to quantify how far the
single-core overhead story survives shared-level contention.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional

from repro.core.config import WatchdogConfig
from repro.experiments.common import (
    BASELINE_LABEL,
    NO_SAMPLING_TIERS,
    ExperimentContext,
    ExperimentDefinition,
    ExperimentSettings,
    ExperimentSpec,
)
from repro.sim.results import CellResult, ExperimentResult
from repro.sim.stats import geometric_mean_overhead
from repro.workloads.profiles import mix_by_name, mix_names

NAME = "mix-overhead"
WATCHDOG = "watchdog"

#: Mixes a quick (unit-test / CI smoke) run covers: the most and the least
#: memory-intensive bundle — the extremes of shared-level pressure.
QUICK_MIXES = ("mix1", "mix5")
#: Settings at or below this horizon are treated as a quick run.
QUICK_INSTRUCTION_LIMIT = 3_000


def _mixes_for(settings: ExperimentSettings) -> List[str]:
    if settings.instructions <= QUICK_INSTRUCTION_LIMIT:
        return list(QUICK_MIXES)
    return mix_names()


def spec(settings: Optional[ExperimentSettings] = None) -> ExperimentSpec:
    """The mix grid: every chosen mix at 1, 2 and 4 cores, ± Watchdog.

    The 1-core cells are ``mixK:1@i`` tokens — each member runs alone under
    exactly the seed it carries inside the mix, so the solo/contended
    comparison holds the workload fixed.  Sampling never applies to mixes
    (there is no cross-core interleaving order between sampled windows), so
    the settings' schedule is dropped and the horizon clamped to the largest
    unsampled trace the bundle layer materializes.
    """
    from repro.workloads.bundle import MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS

    settings = settings or ExperimentSettings()
    tokens: List[str] = []
    for mix_name in _mixes_for(settings):
        mix = mix_by_name(mix_name)
        tokens.extend(f"{mix_name}:1@{index}"
                      for index in range(len(mix.members)))
        tokens.append(f"{mix_name}:2")
        tokens.append(mix_name)
    mix_settings = dataclasses.replace(
        settings, benchmarks=tuple(tokens),
        instructions=min(settings.instructions,
                         MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS),
        sampling=None)
    return ExperimentSpec.build(NAME, {WATCHDOG: WatchdogConfig.isa_assisted_uaf()},
                                settings=mix_settings)


def _lock_mpki(cell: CellResult) -> float:
    return 1000.0 * cell.lock_cache_misses / max(cell.total_uops, 1)


def extract(context: ExperimentContext) -> ExperimentResult:
    """Per-mix overhead by core count, contention MPKI, per-core blocks."""
    result = ExperimentResult(name=context.spec.name)
    cells = context.cells
    mixes = [token for token in context.spec.settings.benchmarks
             if ":" not in token]

    full_overheads: List[float] = []
    solo_overheads: List[float] = []
    contentions: List[float] = []
    for mix_name in mixes:
        members = mix_by_name(mix_name).members
        solos_base = [cells[f"{mix_name}:1@{index}", BASELINE_LABEL]
                      for index in range(len(members))]
        solos_wd = [cells[f"{mix_name}:1@{index}", WATCHDOG]
                    for index in range(len(members))]
        duo_base = cells[f"{mix_name}:2", BASELINE_LABEL]
        duo_wd = cells[f"{mix_name}:2", WATCHDOG]
        full_base = cells[mix_name, BASELINE_LABEL]
        full_wd = cells[mix_name, WATCHDOG]

        per_solo = [wd.overhead_vs(base)
                    for base, wd in zip(solos_base, solos_wd)]
        solo_overheads.extend(per_solo)
        full_overhead = full_wd.overhead_vs(full_base)
        full_overheads.append(full_overhead)
        result.add_value("overhead_percent_1core", mix_name,
                         100.0 * geometric_mean_overhead(per_solo))
        result.add_value("overhead_percent_2core", mix_name,
                         100.0 * duo_wd.overhead_vs(duo_base))
        result.add_value("overhead_percent_4core", mix_name,
                         100.0 * full_overhead)

        # Contention for the shared 4KB lock cache: misses the mix sees
        # beyond what its members produce running alone (same workloads,
        # same seeds — the delta is purely cross-core interference).
        solo_misses = sum(cell.lock_cache_misses for cell in solos_wd)
        solo_uops = sum(cell.total_uops for cell in solos_wd)
        solo_mpki = 1000.0 * solo_misses / max(solo_uops, 1)
        mix_mpki = _lock_mpki(full_wd)
        contention = mix_mpki - solo_mpki
        contentions.append(contention)
        result.add_value("lock_mpki_4core", mix_name, mix_mpki)
        result.add_value("lock_contention_mpki", mix_name, contention)

        # Per-core attribution rows of the 4-core Watchdog cell.
        for core in full_wd.cores:
            row = f"{mix_name}/c{core.core}:{core.benchmark}"
            result.add_value("core_ipc", row, core.ipc)
            result.add_value("core_lock_mpki", row, core.lock_cache_mpki())

    result.add_summary("mix_count", float(len(mixes)))
    result.add_summary("watchdog_geomean_percent_1core",
                       100.0 * geometric_mean_overhead(solo_overheads))
    result.add_summary("watchdog_geomean_percent_4core",
                       100.0 * geometric_mean_overhead(full_overheads))
    finite = [value for value in contentions if not math.isnan(value)]
    result.add_summary("mean_lock_contention_mpki",
                       sum(finite) / len(finite) if finite else float("nan"))
    result.notes.append(
        "mixes share L2+L3+lock cache across cores (private L1s/TLBs); "
        "1-core cells replay each member solo under its in-mix seed, so "
        "lock_contention_mpki isolates cross-core interference")
    return result


DEFINITION = ExperimentDefinition(
    name="mix_overhead",
    title=NAME,
    description="Multi-core mixes — overhead and lock-cache contention "
                "vs core count (1/2/4 cores, shared L2+L3+lock cache)",
    build_spec=spec,
    extract=extract,
    # No expected values: the paper's evaluation is single-core; this
    # experiment extends it rather than reproducing a figure.
    expected={},
    tolerances={},
    # Mixes always measure their full horizon; the spec drops any sampling
    # schedule, so only the unsampled tier is meaningful.
    sampling_tiers=NO_SAMPLING_TIERS,
)
