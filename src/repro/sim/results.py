"""Result records shared by the experiment drivers and the benchmark harness.

Four records cover the pipeline end to end:

* :class:`CellResult` — the flat, JSON-serializable summary of one simulated
  (benchmark, configuration) cell.  It carries every statistic the figure
  drivers read (cycles, µop breakdown, pointer classification, shadow
  footprint), so a cached cell is indistinguishable from a fresh simulation,
* :class:`ExperimentResult` — a whole figure/table: per-benchmark series
  plus headline summary numbers,
* :class:`MetricCheck` / :class:`ExperimentReport` / :class:`SuiteReport` —
  the registry runner's paper-vs-measured verdicts: each summary metric
  compared against the paper's expected value within a tolerance, per
  experiment and for a whole ``repro run`` invocation (with engine/cell
  provenance), which is what the CLI serializes as its JSON artifact.

Two further records carry the resilience layer's verdicts:

* :class:`DegradationEvent` — a structured note that the run silently fell
  back from its fastest path (a native kernel failed to build or self-test,
  a crashed worker was retried with kernels disabled, a corrupt cache entry
  was quarantined).  The run still produced correct numbers — these events
  exist so "correct but 6× slower" can never pass unnoticed,
* :class:`CellFailure` — one (benchmark, configuration) cell that exhausted
  its retry budget.  The suite completes every other cell and exits
  non-zero; the failure record says which cell, after how many attempts,
  and why.

All of them round-trip through plain dicts (``to_dict``/``from_dict``) so the
persistent result cache and any external tooling can store them as JSON.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.stats import percent_overhead


def _from_known_fields(cls, data: Dict[str, Any]):
    """Construct a dataclass from a dict, ignoring unknown (future) keys."""
    known = {f.name for f in fields(cls)}
    return cls(**{key: value for key, value in data.items() if key in known})


@dataclass(frozen=True)
class DegradationEvent:
    """One silent-fallback moment, made loud.

    ``kind`` names the recovery path that fired (``kernel-unavailable``,
    ``native-disabled-retry``, ``worker-crash``, ``cell-timeout``,
    ``worker-error``, ``cache-corrupt``); ``subject`` is what degraded (a
    kernel name, a ``benchmark/label`` cell, a cache entry path);
    ``attempt`` is the 0-based attempt the event occurred on, when it is
    tied to one; ``detail`` is the human-readable reason.
    """

    kind: str
    subject: str
    attempt: Optional[int] = None
    detail: str = ""

    def describe(self) -> str:
        where = f"{self.subject}"
        if self.attempt is not None:
            where += f" (attempt {self.attempt})"
        text = f"{self.kind}: {where}"
        if self.detail:
            text += f" — {self.detail}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DegradationEvent":
        return _from_known_fields(cls, data)


@dataclass(frozen=True)
class CellFailure:
    """A cell that exhausted its retry budget and was quarantined.

    The sweep kept going — every other cell completed — but this
    (benchmark, configuration) coordinate has no real result.  ``attempts``
    counts executions tried (1 + retries), ``reason`` is the terminal
    failure class (``worker-crash``, ``cell-timeout``, ``worker-error``),
    ``detail`` the last error text.
    """

    benchmark: str
    label: str
    attempts: int
    reason: str
    detail: str = ""

    def describe(self) -> str:
        text = (f"{self.benchmark}/{self.label}: {self.reason} after "
                f"{self.attempts} attempt{'s' if self.attempts != 1 else ''}")
        if self.detail:
            text += f" — {self.detail}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellFailure":
        return _from_known_fields(cls, data)


@dataclass(frozen=True)
class CoreResult:
    """Per-core block of a multi-core mix cell.

    One record per core of a :class:`MultiCoreSimulator` run: the core's own
    timing counters plus its attributed share of the shared-level traffic
    (L2/L3/lock-cache hits and misses charged to the core that issued the
    access — the cache objects themselves only hold cross-core totals).
    """

    core: int
    benchmark: str
    cycles: int = 0
    total_uops: int = 0
    injected_uops: int = 0
    macro_instructions: int = 0
    memory_accesses: int = 0
    l1d_misses: int = 0
    lock_cache_misses: int = 0
    # -- attributed shared-level traffic ------------------------------------------
    l2_hits: int = 0
    l2_misses: int = 0
    l3_hits: int = 0
    l3_misses: int = 0
    lock_evictions: int = 0
    lock_writebacks: int = 0

    @property
    def ipc(self) -> float:
        return self.total_uops / self.cycles if self.cycles else 0.0

    def lock_cache_mpki(self) -> float:
        """This core's attributed lock-cache misses per 1000 µops."""
        return 1000.0 * self.lock_cache_misses / max(self.total_uops, 1)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CoreResult":
        return _from_known_fields(cls, data)


@dataclass(frozen=True)
class CellResult:
    """Flat summary of one simulated (benchmark, configuration) cell.

    Collapses :class:`~repro.sim.simulator.SimulationOutcome`'s live objects
    (timing result, injection stats, pointer-classification stats, page
    accountant) into plain counters.  Everything the experiment extractors
    derive is available as a property, and the record is immutable, hashable
    and JSON-serializable — the currency of the sweep engine and its cache.
    """

    benchmark: str
    configuration: str
    # -- timing ------------------------------------------------------------------
    cycles: int = 0
    total_uops: int = 0
    injected_uops: int = 0
    macro_instructions: int = 0
    memory_accesses: int = 0
    lock_cache_misses: int = 0
    l1d_misses: int = 0
    # -- µop injection breakdown (Figure 8) ---------------------------------------
    baseline_uops: int = 0
    check_uops: int = 0
    bounds_check_uops: int = 0
    pointer_load_uops: int = 0
    pointer_store_uops: int = 0
    select_uops: int = 0
    frame_uops: int = 0
    other_uops: int = 0
    # -- pointer classification (Figure 5) ----------------------------------------
    memory_ops: int = 0
    pointer_ops: int = 0
    # -- shadow footprint (Figure 10) ---------------------------------------------
    data_words: int = 0
    shadow_words: int = 0
    data_pages: int = 0
    shadow_pages: int = 0
    # -- resilience ----------------------------------------------------------------
    #: True for the all-zero placeholder of a quarantined cell (see
    #: :meth:`failed_cell`).  Placeholders keep extractors total — every
    #: benchmark still has a row — while poisoning derived metrics (NaN
    #: overheads) so a failed cell can never silently pass a paper check.
    failed: bool = False
    # -- multi-core ----------------------------------------------------------------
    #: Per-core blocks of a mix cell (empty for single-core cells).  The
    #: top-level counters then aggregate across cores with ``cycles`` being
    #: the *slowest* core's cycles — the wall time of the multiprogrammed
    #: run.
    cores: Tuple[CoreResult, ...] = ()

    @classmethod
    def failed_cell(cls, benchmark: str, configuration: str) -> "CellResult":
        """The placeholder standing in for a quarantined cell's result."""
        return cls(benchmark=benchmark, configuration=configuration,
                   failed=True)

    @classmethod
    def from_outcome(cls, outcome, label: Optional[str] = None) -> "CellResult":
        """Summarize a :class:`SimulationOutcome` into a flat cell record."""
        timing = outcome.timing
        injection = outcome.injection
        pointer = outcome.pointer_stats
        pages = outcome.pages
        return cls(
            benchmark=outcome.benchmark,
            configuration=label if label is not None else outcome.configuration,
            cycles=timing.cycles if timing else 0,
            total_uops=timing.total_uops if timing else 0,
            injected_uops=timing.injected_uops if timing else 0,
            macro_instructions=timing.macro_instructions if timing else 0,
            memory_accesses=timing.memory_accesses if timing else 0,
            lock_cache_misses=timing.lock_cache_misses if timing else 0,
            l1d_misses=timing.l1d_misses if timing else 0,
            baseline_uops=injection.baseline_uops if injection else 0,
            check_uops=injection.check_uops if injection else 0,
            bounds_check_uops=injection.bounds_check_uops if injection else 0,
            pointer_load_uops=injection.pointer_load_uops if injection else 0,
            pointer_store_uops=injection.pointer_store_uops if injection else 0,
            select_uops=injection.select_uops if injection else 0,
            frame_uops=injection.frame_uops if injection else 0,
            other_uops=injection.other_uops if injection else 0,
            memory_ops=pointer.memory_ops if pointer else 0,
            pointer_ops=pointer.pointer_ops if pointer else 0,
            data_words=pages.data_word_count if pages else 0,
            shadow_words=pages.shadow_word_count if pages else 0,
            data_pages=pages.data_page_count if pages else 0,
            shadow_pages=pages.shadow_page_count if pages else 0,
            cores=tuple(getattr(outcome, "cores", ()) or ()),
        )

    # -- derived values (what the experiment extractors read) ----------------------
    @property
    def ipc(self) -> float:
        return self.total_uops / self.cycles if self.cycles else 0.0

    def overhead_vs(self, baseline: "CellResult") -> float:
        """Slowdown relative to ``baseline`` as a fraction.

        NaN when either cell is a quarantined-failure placeholder or the
        baseline has no cycles: extractors stay total over a degraded grid
        (every benchmark keeps its row), while any check whose inputs
        include a failed cell can only read DEVIATION, never a fabricated
        number.
        """
        if self.failed or baseline.failed or baseline.cycles <= 0:
            return float("nan")
        return percent_overhead(baseline.cycles, self.cycles)

    @property
    def pointer_fraction(self) -> float:
        """Fraction of memory accesses carrying metadata (Figure 5)."""
        return self.pointer_ops / self.memory_ops if self.memory_ops else 0.0

    def uop_overhead_fraction(self) -> float:
        """Injected µops as a fraction of baseline µops (Figure 8 bar height)."""
        injected = (self.check_uops + self.bounds_check_uops
                    + self.pointer_load_uops + self.pointer_store_uops
                    + self.select_uops + self.frame_uops + self.other_uops)
        return injected / self.baseline_uops if self.baseline_uops else 0.0

    def uop_breakdown(self) -> Dict[str, float]:
        """Figure 8 segments as fractions of the baseline µop count."""
        base = max(self.baseline_uops, 1)
        return {
            "checks": (self.check_uops + self.bounds_check_uops) / base,
            "pointer_loads": self.pointer_load_uops / base,
            "pointer_stores": self.pointer_store_uops / base,
            "other": (self.select_uops + self.frame_uops + self.other_uops) / base,
        }

    def word_overhead(self) -> float:
        """Shadow words as a fraction of data words (Figure 10, left bars)."""
        return self.shadow_words / self.data_words if self.data_words else 0.0

    def page_overhead(self) -> float:
        """Shadow pages as a fraction of data pages (Figure 10, right bars)."""
        return self.shadow_pages / self.data_pages if self.data_pages else 0.0

    def relabel(self, benchmark: str, configuration: str) -> "CellResult":
        """The same statistics under different grid coordinates."""
        return replace(self, benchmark=benchmark, configuration=configuration)

    # -- JSON round-trip -------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["cores"] = [core.to_dict() for core in self.cores]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellResult":
        if "cores" in data:
            # Normalize to a tuple of CoreResult so the record stays hashable
            # whether it came from JSON (list of dicts) or a live copy.
            data = dict(data)
            data["cores"] = tuple(
                core if isinstance(core, CoreResult)
                else CoreResult.from_dict(core)
                for core in data["cores"] or ())
        return _from_known_fields(cls, data)


@dataclass
class ExperimentResult:
    """A full experiment: per-benchmark values for one or more series."""

    name: str
    #: series name -> benchmark name -> value (meaning depends on experiment).
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: free-form summary numbers (e.g. averages) keyed by label.
    summary: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_value(self, series: str, benchmark: str, value: float) -> None:
        self.series.setdefault(series, {})[benchmark] = value

    def add_summary(self, label: str, value: float) -> None:
        self.summary[label] = value

    def benchmarks(self) -> List[str]:
        names: List[str] = []
        for values in self.series.values():
            for benchmark in values:
                if benchmark not in names:
                    names.append(benchmark)
        return names

    def format_table(self, value_format: str = "{:>10.1f}") -> str:
        """Render the experiment as a text table (one row per benchmark)."""
        series_names = list(self.series)
        header = f"{'benchmark':<12}" + "".join(f"{name:>18}" for name in series_names)
        lines = [header]
        for benchmark in self.benchmarks():
            row = f"{benchmark:<12}"
            for name in series_names:
                value = self.series[name].get(benchmark)
                cell = value_format.format(value) if value is not None else " " * 10
                row += f"{cell:>18}"
            lines.append(row)
        if self.summary:
            lines.append("-" * len(header))
            for label, value in self.summary.items():
                lines.append(f"{label:<30} {value:.3f}")
        for note in self.notes:
            lines.append(f"# {note}")
        return "\n".join(lines)

    # -- JSON round-trip -------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "series": {series: dict(values) for series, values in self.series.items()},
            "summary": dict(self.summary),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentResult":
        return cls(
            name=data["name"],
            series={series: dict(values)
                    for series, values in data.get("series", {}).items()},
            summary=dict(data.get("summary", {})),
            notes=list(data.get("notes", [])),
        )


@dataclass(frozen=True)
class MetricCheck:
    """One summary metric compared against the paper's expected value.

    ``measured=None`` marks a metric the experiment failed to produce at all
    (a summary key the extractor no longer emits) — always a failed check,
    since silently dropping a metric is exactly the drift the checks exist
    to catch.
    """

    metric: str
    expected: float
    tolerance: float
    measured: Optional[float] = None

    @property
    def deviation(self) -> Optional[float]:
        """Signed distance from the paper's value (``None`` if unmeasured)."""
        if self.measured is None:
            return None
        return self.measured - self.expected

    @property
    def ok(self) -> bool:
        return self.measured is not None and \
            abs(self.measured - self.expected) <= self.tolerance

    def describe(self) -> str:
        if self.measured is None:
            return (f"{self.metric}: MISSING (expected "
                    f"{self.expected:g} ±{self.tolerance:g})")
        return (f"{self.metric}: measured {self.measured:.2f} vs expected "
                f"{self.expected:g} ±{self.tolerance:g} "
                f"(deviation {self.deviation:+.2f}): "
                f"{'OK' if self.ok else 'DEVIATION'}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "measured": self.measured,
            "deviation": self.deviation,
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricCheck":
        return cls(metric=data["metric"], expected=data["expected"],
                   tolerance=data["tolerance"], measured=data.get("measured"))


@dataclass
class ExperimentReport:
    """One experiment's registry-runner outcome: result, checks, provenance."""

    name: str
    result: ExperimentResult
    checks: List[MetricCheck] = field(default_factory=list)
    #: Metric-extraction time only; the (shared) merged sweep's wall time is
    #: reported suite-wide as ``SuiteReport.engine["sweep_seconds"]``.
    elapsed_seconds: float = 0.0
    #: Where this experiment's cells came from: ``grid_cells`` is the size of
    #: its declared grid (0 for standalone experiments), ``unique_cells`` the
    #: number of distinct simulations backing it after label dedup.
    provenance: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "provenance": dict(self.provenance),
            "checks": [check.to_dict() for check in self.checks],
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentReport":
        return cls(
            name=data["name"],
            result=ExperimentResult.from_dict(data["result"]),
            checks=[MetricCheck.from_dict(check)
                    for check in data.get("checks", [])],
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            provenance=dict(data.get("provenance", {})),
        )


@dataclass
class SuiteReport:
    """A whole ``repro run`` invocation: per-experiment reports + engine stats.

    ``engine`` records the merged run's cell provenance — how many grid cells
    the requested experiments declared, how many unique simulations they
    collapsed to, how many actually simulated versus came from the persistent
    cache, and in how many engine batches — so the JSON artifact documents
    not just *what* was measured but *how* it was computed.
    """

    reports: List[ExperimentReport] = field(default_factory=list)
    settings: Dict[str, Any] = field(default_factory=dict)
    engine: Dict[str, Any] = field(default_factory=dict)
    #: Every silent fallback the run took (kernel unavailable, degraded
    #: retry, quarantined cache entry, ...) — advisory, does not flip ``ok``.
    degradations: List[DegradationEvent] = field(default_factory=list)
    #: Cells that exhausted their retry budget — each one fails the suite.
    cell_failures: List[CellFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.cell_failures and \
            all(report.ok for report in self.reports)

    def failures(self) -> List[ExperimentReport]:
        return [report for report in self.reports if not report.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "settings": dict(self.settings),
            "engine": dict(self.engine),
            "degradations": [event.to_dict() for event in self.degradations],
            "cell_failures": [failure.to_dict()
                              for failure in self.cell_failures],
            "experiments": [report.to_dict() for report in self.reports],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SuiteReport":
        return cls(
            reports=[ExperimentReport.from_dict(report)
                     for report in data.get("experiments", [])],
            settings=dict(data.get("settings", {})),
            engine=dict(data.get("engine", {})),
            degradations=[DegradationEvent.from_dict(event)
                          for event in data.get("degradations", [])],
            cell_failures=[CellFailure.from_dict(failure)
                           for failure in data.get("cell_failures", [])],
        )
