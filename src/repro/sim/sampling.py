"""Periodic sampling schedule (§9.1).

The paper simulates 2% of each benchmark using periodic samples of 10 million
instructions, each preceded by 480 million instructions of fast-forward and
10 million of cache/branch-predictor warm-up.  The reproduction's synthetic
traces are much shorter, but the same mechanism is provided (scaled down by
default) so experiments can declare which portion of a trace is measured and
which is warm-up only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SamplingConfig:
    """Lengths (in dynamic instructions) of each phase of a sampling period."""

    fast_forward: int = 480_000
    warmup: int = 10_000
    sample: int = 10_000

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "SamplingConfig":
        """Check every phase length, raising a field-specific error."""
        for name in ("fast_forward", "warmup", "sample"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"sampling {name} must be an integer instruction count, "
                    f"got {value!r}")
        if self.fast_forward < 0:
            raise ConfigurationError(
                f"sampling fast_forward must be >= 0, got {self.fast_forward}")
        if self.warmup < 0:
            raise ConfigurationError(
                f"sampling warmup must be >= 0, got {self.warmup}")
        if self.sample <= 0:
            raise ConfigurationError(
                f"sampling sample must be > 0, got {self.sample}")
        return self

    @property
    def period(self) -> int:
        return self.fast_forward + self.warmup + self.sample

    @classmethod
    def paper(cls) -> "SamplingConfig":
        """The §9.1 schedule: 480M fast-forward, 10M warm-up, 10M sample."""
        return cls(fast_forward=480_000_000, warmup=10_000_000, sample=10_000_000)

    @classmethod
    def paper_scaled(cls, period: int = 10_000_000) -> "SamplingConfig":
        """The §9.1 proportions (96% skip, 2% warm-up, 2% measure) at an
        arbitrary period.

        The unscaled :meth:`paper` schedule has a 500M-instruction period —
        longer than the reproduction's 100M-instruction paper horizon, so it
        would measure nothing there.  This keeps the paper's 2% sampled
        fraction and its fast-forward : warm-up : sample structure while
        fitting the period to the horizon (a 100M horizon yields 10 periods
        at the default 10M period).
        """
        if period < 50:
            raise ConfigurationError(
                f"paper-scaled sampling period must be >= 50 instructions "
                f"to hold the 2% sample window, got {period}")
        sample = period // 50
        return cls(fast_forward=period - 2 * sample, warmup=sample,
                   sample=sample)

    @classmethod
    def quick(cls) -> "SamplingConfig":
        """The §9.1 schedule scaled to the reproduction's synthetic horizons.

        Keeps the paper's fast-forward : warm-up : sample *structure* but at a
        100k-instruction period (10% measured), so million-instruction
        synthetic traces yield ~10 samples while staying ≥5× cheaper to time
        than an unsampled run.
        """
        return cls(fast_forward=80_000, warmup=10_000, sample=10_000)

    @property
    def degenerate(self) -> bool:
        """Whether this schedule measures every instruction (no skip/warm)."""
        return self.fast_forward == 0 and self.warmup == 0

    def samples_horizon(self, instructions: int) -> bool:
        """Whether this schedule genuinely samples an ``instructions`` horizon.

        False when it measures everything (:attr:`degenerate`) or nothing
        (the horizon ends inside the first period's skip and warm-up); the
        sweep engine runs both unsampled.
        """
        return not self.degenerate \
            and SamplingSchedule(self).measured_count(instructions) > 0


#: Named §9.1 schedules selectable from ``repro run --sampling``; each
#: value is a zero-argument factory and ``none`` disables sampling.
SAMPLING_SCHEDULES = {
    "none": lambda: None,
    "quick": SamplingConfig.quick,
    "paper": SamplingConfig.paper,
    "paper-scaled": SamplingConfig.paper_scaled,
}


class SamplingSchedule:
    """Classifies every instruction index into skip / warm-up / measure."""

    SKIP = "skip"
    WARMUP = "warmup"
    MEASURE = "measure"

    def __init__(self, config: SamplingConfig):
        self.config = config

    def phase_of(self, index: int) -> str:
        """Phase of the instruction at dynamic index ``index``."""
        position = index % self.config.period
        if position < self.config.fast_forward:
            return self.SKIP
        if position < self.config.fast_forward + self.config.warmup:
            return self.WARMUP
        return self.MEASURE

    def windows(self, total: int) -> List[Tuple[int, int, str]]:
        """Contiguous (start, end, phase) windows covering ``[0, total)``.

        Computed per period rather than per instruction, so segmenting a
        multi-million-instruction trace costs O(periods); zero-length phases
        are omitted and adjacent same-phase windows are merged, matching a
        per-index classification via :meth:`phase_of` exactly.
        """
        config = self.config
        result: List[Tuple[int, int, str]] = []
        period_start = 0
        while period_start < total:
            warm_start = period_start + config.fast_forward
            measure_start = warm_start + config.warmup
            for start, end, phase in (
                    (period_start, warm_start, self.SKIP),
                    (warm_start, measure_start, self.WARMUP),
                    (measure_start, period_start + config.period, self.MEASURE)):
                end = min(end, total)
                if start >= end:
                    continue
                if result and result[-1][2] == phase and result[-1][1] == start:
                    result[-1] = (result[-1][0], end, phase)
                else:
                    result.append((start, end, phase))
            period_start += config.period
        return result

    def measured_count(self, total: int) -> int:
        """Number of measured instructions in ``[0, total)`` (closed form)."""
        config = self.config
        full_periods, remainder = divmod(total, config.period)
        measure_start = config.fast_forward + config.warmup
        return (full_periods * config.sample
                + max(0, remainder - measure_start))
