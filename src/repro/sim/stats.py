"""Statistic helpers shared by experiments and benchmarks.

The paper reports per-benchmark percentage slowdowns and geometric means
("Geo. mean" in Figures 7, 9 and 11) and arithmetic averages for the µop and
classification breakdowns (Figures 5 and 8).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import SimulationError


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values; empty input returns 0."""
    values = [v for v in values]
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise SimulationError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geometric_mean_overhead(overheads: Sequence[float]) -> float:
    """Geometric mean of percentage overheads expressed as fractions.

    Overheads are slowdown ratios minus one, which may legitimately be zero
    or slightly negative for individual benchmarks; the mean is taken over
    the ratios (1 + overhead) as the paper does, then converted back.
    """
    ratios = [1.0 + o for o in overheads]
    if not ratios:
        return 0.0
    return geometric_mean(ratios) - 1.0


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain average; empty input returns 0."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def percent_overhead(baseline_cycles: float, configured_cycles: float) -> float:
    """Slowdown of a configuration over its baseline, as a fraction."""
    if baseline_cycles <= 0:
        raise SimulationError("baseline cycles must be positive")
    return configured_cycles / baseline_cycles - 1.0
