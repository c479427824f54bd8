"""Declarative experiment specifications.

The paper's evaluation is one big (benchmark × configuration) grid.  Rather
than each experiment hand-rolling its own run loop, an experiment
*describes* its grid:

* :class:`ExperimentSettings` — the sweep-wide knobs (which benchmarks, how
  many dynamic instructions, which seed),
* :class:`RunRequest` — one cell of the grid: run *benchmark* under *config*
  for *instructions* macro-instructions with *seed*,
* :class:`ExperimentSpec` — a named set of labelled configurations over the
  settings' benchmarks, expanded to the full list of cells by
  :meth:`ExperimentSpec.requests`.

The :class:`~repro.sim.engine.SweepEngine` consumes these specs: it decides
how to execute the cells (serially, on a process pool, or straight from the
persistent result cache) — the spec stays purely descriptive.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.config import WatchdogConfig
from repro.errors import ConfigurationError
from repro.sim.sampling import SamplingConfig
from repro.workloads.profiles import benchmark_names

#: Default dynamic macro-instruction count per benchmark run.  Large enough
#: for cache/branch behaviour to settle, small enough to keep the full
#: 20-benchmark sweeps fast; the benchmark harness can raise it.
DEFAULT_INSTRUCTIONS = 8_000
#: Default random seed for the synthetic workloads (reproducibility).
DEFAULT_SEED = 7

#: Label of the unprotected (Watchdog-disabled) configuration every overhead
#: experiment compares against.
BASELINE_LABEL = "baseline"


def validate_sampling(sampling: Optional[SamplingConfig],
                      instructions: Optional[int] = None) -> Optional[SamplingConfig]:
    """Check a spec's sampling selection at construction time.

    Specs are built long before any cell simulates (often in a different
    process than the one that executes them), so a bad sampling value must
    surface here with a field-specific message, not as a mid-sweep failure.

    With ``instructions`` given, the schedule is additionally checked against
    the horizon.  The sweep engine runs a cell whose schedule measures
    everything or nothing unsampled, as one window; at paper scale that
    would materialize the whole horizon, so such a schedule (like no
    schedule at all) is rejected up front with a pointer at
    :meth:`SamplingConfig.paper_scaled`.
    """
    if sampling is None:
        if instructions is not None:
            from repro.workloads.bundle import \
                MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS

            if instructions > MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS:
                raise ConfigurationError(
                    f"an unsampled run would materialize all {instructions} "
                    f"instructions; paper-scale horizons require a §9.1 "
                    f"sampling schedule (e.g. --sampling paper-scaled / "
                    f"SamplingConfig.paper_scaled())")
        return None
    if not isinstance(sampling, SamplingConfig):
        raise ConfigurationError(
            f"sampling must be a SamplingConfig or None, "
            f"got {type(sampling).__name__}: {sampling!r}")
    sampling.validate()
    if instructions is not None:
        from repro.workloads.bundle import MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS

        if instructions > MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS and \
                not sampling.samples_horizon(instructions):
            raise ConfigurationError(
                f"sampling schedule (period {sampling.period}) measures "
                f"{'everything' if sampling.degenerate else 'nothing'} "
                f"over {instructions} instructions; a paper-scale horizon "
                f"cannot fall back to unsampled execution — use "
                f"SamplingConfig.paper_scaled() or shrink the period")
    return sampling


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all figure experiments."""

    benchmarks: Tuple[str, ...] = tuple(benchmark_names())
    instructions: int = DEFAULT_INSTRUCTIONS
    seed: int = DEFAULT_SEED
    #: §9.1 periodic-sampling schedule; ``None`` measures every instruction.
    sampling: Optional[SamplingConfig] = None

    def __post_init__(self) -> None:
        validate_sampling(self.sampling, self.instructions)

    @classmethod
    def quick(cls, benchmarks: Optional[Sequence[str]] = None,
              instructions: int = 3_000) -> "ExperimentSettings":
        """A reduced setting for unit tests (few benchmarks, short traces)."""
        chosen = tuple(benchmarks) if benchmarks else ("gzip", "mcf", "lbm", "gcc")
        return cls(benchmarks=chosen, instructions=instructions)

    @classmethod
    def paper(cls, benchmarks: Optional[Sequence[str]] = None,
              sampling: Optional[SamplingConfig] = None) -> "ExperimentSettings":
        """The paper-scale operating point: 100M-instruction horizons over
        the ``*-paper`` profiles under a horizon-fitted §9.1 schedule."""
        from repro.workloads.profiles import (
            PAPER_HORIZON_INSTRUCTIONS,
            paper_profile_names,
        )

        return cls(benchmarks=tuple(benchmarks or paper_profile_names()),
                   instructions=PAPER_HORIZON_INSTRUCTIONS,
                   sampling=sampling or SamplingConfig.paper_scaled())


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the sweep engine treats a cell whose worker crashed or hung.

    ``retries`` is the number of *re*-executions after the first failed
    attempt (so a cell runs at most ``1 + retries`` times); ``0`` quarantines
    on first failure.  ``deadline_seconds`` is the per-cell wall-clock budget
    enforced on pooled rounds (``None`` = unlimited; serial execution cannot
    preempt a running cell, so deadlines only bind with ``workers > 1``).
    ``backoff_seconds`` is the base of the exponential pause before retry
    *n* (``backoff_seconds * 2**(n-1)``) — it gives a transiently-starved
    machine (OOM pressure, a noisy co-tenant) room to recover before the
    re-execution hits it again.  ``degrade_native`` retries a crashed cell
    with the native kernels disabled (``REPRO_TIMECORE=0``/``REPRO_FFCORE=0``)
    before giving up, on the theory that a segfault in freshly-compiled C is
    the most likely crash cause; the fallback is golden-equal, just slower,
    and is reported as a :class:`~repro.sim.results.DegradationEvent`.
    """

    retries: int = 2
    deadline_seconds: Optional[float] = None
    backoff_seconds: float = 0.0
    degrade_native: bool = True

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline_seconds must be positive, "
                f"got {self.deadline_seconds}")
        if self.backoff_seconds < 0:
            raise ConfigurationError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}")

    def backoff_before(self, attempt: int) -> float:
        """Seconds to pause before executing 0-based attempt ``attempt``."""
        if attempt <= 0 or self.backoff_seconds <= 0:
            return 0.0
        return self.backoff_seconds * (2.0 ** (attempt - 1))

    @classmethod
    def from_env(cls) -> "ResiliencePolicy":
        """Policy overrides from ``REPRO_RETRIES`` / ``REPRO_DEADLINE`` /
        ``REPRO_BACKOFF`` / ``REPRO_DEGRADE_NATIVE`` (CLI flags win over
        these; both beat the defaults)."""
        kwargs = {}
        retries = os.environ.get("REPRO_RETRIES")
        if retries is not None:
            try:
                kwargs["retries"] = int(retries)
            except ValueError:
                raise ConfigurationError(
                    f"REPRO_RETRIES must be an integer, "
                    f"got {retries!r}") from None
        deadline = os.environ.get("REPRO_DEADLINE")
        if deadline is not None:
            try:
                kwargs["deadline_seconds"] = float(deadline)
            except ValueError:
                raise ConfigurationError(
                    f"REPRO_DEADLINE must be a number of seconds, "
                    f"got {deadline!r}") from None
        backoff = os.environ.get("REPRO_BACKOFF")
        if backoff is not None:
            try:
                kwargs["backoff_seconds"] = float(backoff)
            except ValueError:
                raise ConfigurationError(
                    f"REPRO_BACKOFF must be a number of seconds, "
                    f"got {backoff!r}") from None
        degrade = os.environ.get("REPRO_DEGRADE_NATIVE")
        if degrade is not None:
            kwargs["degrade_native"] = degrade.strip().lower() not in \
                ("0", "false", "no", "off")
        return cls(**kwargs)


def settings_from_args(args) -> ExperimentSettings:
    """Build :class:`ExperimentSettings` from parsed CLI arguments.

    Used by ``repro run``, the one command-line entry to the experiments;
    ``args`` needs ``benchmarks`` (comma-separated or ``None``), ``quick``,
    ``instructions``, ``seed`` and optionally ``sampling`` (a
    :data:`~repro.sim.sampling.SAMPLING_SCHEDULES` name).
    Raises :class:`~repro.errors.ConfigurationError` for invalid
    combinations (e.g. a paper-scale horizon whose schedule measures
    nothing).
    """
    import dataclasses

    from repro.sim.sampling import SAMPLING_SCHEDULES

    benchmarks = tuple(args.benchmarks.split(",")) if args.benchmarks else None
    if args.quick:
        settings = ExperimentSettings.quick(benchmarks=benchmarks)
    elif benchmarks:
        settings = ExperimentSettings(benchmarks=benchmarks)
    else:
        settings = ExperimentSettings()
    updates = {}
    if args.instructions is not None:
        updates["instructions"] = args.instructions
    if args.seed is not None:
        updates["seed"] = args.seed
    sampling = SAMPLING_SCHEDULES[getattr(args, "sampling", "none")]()
    if sampling is not None:
        updates["sampling"] = sampling
    return dataclasses.replace(settings, **updates) if updates else settings


@dataclass(frozen=True)
class RunRequest:
    """One (benchmark, configuration) cell of an experiment grid."""

    benchmark: str
    label: str
    config: WatchdogConfig
    instructions: int = DEFAULT_INSTRUCTIONS
    seed: int = DEFAULT_SEED
    #: ``None`` selects the default warm-up window (see
    #: :func:`repro.workloads.bundle.default_warmup_instructions`).
    warmup_instructions: Optional[int] = None
    #: §9.1 periodic-sampling schedule; ``None`` measures every instruction.
    sampling: Optional[SamplingConfig] = None

    def __post_init__(self) -> None:
        validate_sampling(self.sampling, self.instructions)
        if self.sampling is not None and self.warmup_instructions is not None:
            raise ConfigurationError(
                "warmup_instructions cannot be combined with a sampling "
                "schedule: the schedule's warm-up windows apply")
        if self.sampling is not None:
            # Mix tokens ("mix1", "mix3:2@1", …) ride in the benchmark slot;
            # sampled windows have no cross-core interleaving order, so the
            # combination must fail at spec construction, not mid-sweep.
            from repro.workloads.profiles import parse_mix_benchmark

            if parse_mix_benchmark(self.benchmark) is not None:
                raise ConfigurationError(
                    f"benchmark {self.benchmark!r} is a multi-core mix, "
                    f"which cannot be combined with a §9.1 sampling "
                    f"schedule — mixes measure their full horizon")

    @property
    def key(self) -> Tuple[str, str]:
        """The (benchmark, label) coordinates of this cell in the grid."""
        return (self.benchmark, self.label)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named (benchmark × configuration) grid, ready to be executed.

    ``configs`` is an ordered sequence of (label, configuration) pairs; label
    order is preserved so serial and parallel executions enumerate — and
    therefore report — cells identically.
    """

    name: str
    configs: Tuple[Tuple[str, WatchdogConfig], ...]
    settings: ExperimentSettings = field(default_factory=ExperimentSettings)
    #: Whether the grid additionally includes the unprotected baseline
    #: (needed by every experiment that reports slowdowns).
    include_baseline: bool = True

    @classmethod
    def build(cls, name: str, configs: Mapping[str, WatchdogConfig],
              settings: Optional[ExperimentSettings] = None,
              include_baseline: bool = True) -> "ExperimentSpec":
        """Build a spec from a label → configuration mapping."""
        return cls(name=name, configs=tuple(configs.items()),
                   settings=settings or ExperimentSettings(),
                   include_baseline=include_baseline)

    def requests(self) -> List[RunRequest]:
        """Expand the grid into its full, deterministically-ordered cell list."""
        cells: List[RunRequest] = []
        pairs: List[Tuple[str, WatchdogConfig]] = []
        if self.include_baseline:
            pairs.append((BASELINE_LABEL, WatchdogConfig.disabled()))
        pairs.extend(self.configs)
        for benchmark in self.settings.benchmarks:
            for label, config in pairs:
                cells.append(RunRequest(
                    benchmark=benchmark, label=label, config=config,
                    instructions=self.settings.instructions,
                    seed=self.settings.seed,
                    sampling=self.settings.sampling))
        return cells

    def __len__(self) -> int:
        return len(self.settings.benchmarks) * \
            (len(self.configs) + (1 if self.include_baseline else 0))


def request_content_key(request: RunRequest) -> Tuple:
    """A cell's workload+configuration identity, ignoring the cosmetic label.

    Two requests with equal content keys describe the same simulation even if
    different figures name them differently (fig7's "isa-assisted" is fig9's
    "with-lock-cache" is fig11's "watchdog").  This is the dedup key the
    multi-experiment merge uses and the engine's memo key.
    """
    return (request.benchmark, request.config, request.instructions,
            request.seed, request.warmup_instructions, request.sampling)


@dataclass(frozen=True)
class MergedGrid:
    """Several experiment grids fused into one deduplicated super-spec.

    The figure experiments overlap heavily — fig7/8/10/11 all want the
    ISA-assisted run, every slowdown figure wants the baseline — so a
    ``repro run --all`` that executed each spec separately would enumerate
    many cells several times and drain the worker pool at every figure
    boundary.  The merged grid enumerates each *distinct* cell exactly once
    (first-seen order, first-seen label), so one engine batch computes the
    union and :meth:`split` hands every spec its own fully-labelled grid
    back, cell-for-cell identical to a standalone run.
    """

    specs: Tuple[ExperimentSpec, ...]

    @classmethod
    def merge(cls, specs: Sequence[ExperimentSpec]) -> "MergedGrid":
        return cls(specs=tuple(specs))

    def requests(self) -> Tuple[RunRequest, ...]:
        """The union of all specs' cells, deduplicated by content identity.

        Computed once per instance (``requests``/``split``/``__len__`` all
        share it) and cached outside the dataclass fields, so equality and
        hashing stay defined by the specs alone.

        Raises :class:`~repro.errors.ConfigurationError` when two specs bind
        the same (benchmark, label) to *different* configurations: the
        merged resolution is keyed by grid coordinates, so such a collision
        would silently serve one spec the other's cells.  (The same label
        for the same configuration — fig7's "isa-assisted" appearing in
        several figures — merges fine.)
        """
        cached = self.__dict__.get("_requests")
        if cached is not None:
            return cached
        merged: List[RunRequest] = []
        seen: set = set()
        grid_keys: set = set()
        for spec in self.specs:
            for request in spec.requests():
                key = request_content_key(request)
                if key in seen:
                    continue
                if request.key in grid_keys:
                    # Deduplication already removed same-content duplicates,
                    # so a repeated grid key here means the same label names
                    # two different simulations across the merged specs.
                    raise ConfigurationError(
                        f"cannot merge specs: label {request.label!r} on "
                        f"benchmark {request.benchmark!r} is bound to "
                        f"different configurations by different specs; "
                        f"rename one label or run the experiments separately")
                seen.add(key)
                grid_keys.add(request.key)
                merged.append(request)
        result = tuple(merged)
        object.__setattr__(self, "_requests", result)
        return result

    def __len__(self) -> int:
        return len(self.requests())

    def total_grid_cells(self) -> int:
        """Cell count *before* dedup (what per-experiment runs would cost)."""
        return sum(len(spec) for spec in self.specs)

    def split(self, cells: Mapping) -> "dict":
        """Distribute a merged run's cells back to each spec's grid.

        ``cells`` is the resolution of :meth:`requests` keyed by those
        requests' (benchmark, label) grid coordinates — exactly what
        :meth:`repro.sim.engine.SweepEngine.run_requests` returns.  Each
        spec's grid comes back keyed and labelled as if it had been run
        standalone.
        """
        by_content = {}
        for request in self.requests():
            by_content[request_content_key(request)] = cells[request.key]
        grids: dict = {}
        for spec in self.specs:
            grid = {}
            for request in spec.requests():
                cell = by_content[request_content_key(request)]
                if cell.configuration != request.label:
                    cell = cell.relabel(request.benchmark, request.label)
                grid[request.key] = cell
            grids[spec.name] = grid
        return grids
