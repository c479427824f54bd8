"""The sweep engine: parallel, trace-sharing, cache-aware, fault-tolerant
cell execution.

Execution model
---------------

The engine receives the cells of one or more
:class:`~repro.sim.spec.ExperimentSpec` grids and resolves each cell in the
cheapest way available:

1. **memo** — a cell already resolved by this engine instance is returned
   as-is (experiments share configurations, e.g. the ISA-assisted run
   feeds Figures 7, 8, 9, 10 and 11),
2. **cache** — with a :class:`~repro.sim.cache.ResultCache` attached,
   content-hash hits skip simulation entirely; since failed cells are never
   stored, rerunning an interrupted or quarantined suite re-simulates
   exactly the cells it lacks,
3. **simulate** — remaining cells are grouped *per benchmark*: one job
   generates the benchmark's dynamic trace once (as a one-window
   :class:`~repro.workloads.bundle.TraceBundle`) and replays it under every
   requested configuration; a §9.1-sampled job instead streams its samples
   (:class:`~repro.workloads.streaming.SampleStream`), replaying each under
   every configuration before generating the next.  :func:`execute_job` is
   the one place that decides which: a job streams exactly when its
   schedule genuinely samples the horizon, and a schedule that measures
   everything or nothing runs unsampled.  Jobs run serially or on a
   :class:`~concurrent.futures.ProcessPoolExecutor`.

Because the trace is a pure function of (profile, seed) and each cell is
independent, the merge is deterministic: results are keyed by (benchmark,
label) and collected in job-submission order, so a ``workers=8`` sweep is
bit-identical to a ``workers=1`` sweep.

Failure model
-------------

One worker dying must never sink a paper-scale suite.  Simulation rounds
run under a :class:`~repro.sim.spec.ResiliencePolicy`:

* a job whose worker **crashed** (``BrokenProcessPool``, or an injected
  :class:`~repro.sim.faults.InjectedWorkerCrash` in-process) is retried at
  once, transparently rebuilding the broken pool; a crash with the native
  kernels live retries with them disabled (``REPRO_TIMECORE=0`` /
  ``REPRO_FFCORE=0``), since freshly-compiled C is the likeliest crash
  source and the Python fallback is golden-equal;
  siblings whose pending futures were poisoned by the same breakage retry
  for free (``pool-collateral``) — only one job per breakage is charged,
* a pooled job exceeding the policy's per-cell **deadline** counts as
  failed-this-attempt and the pool is rebuilt (a hung worker cannot be
  cancelled, only abandoned); serial/in-parent execution cannot preempt a
  running cell, so deadlines bind only with ``workers > 1``,
* a job that exhausts ``1 + retries`` attempts is **quarantined**: each of
  its cells becomes a :class:`~repro.sim.results.CellFailure` plus an
  all-zero ``failed`` placeholder result, and every *other* cell still
  completes — the suite finishes degraded instead of dying.

Every recovery step is recorded as a
:class:`~repro.sim.results.DegradationEvent` on :attr:`SweepEngine.degradations`
so "completed, but not at full health" is visible in reports, and all of it
is deterministically testable through :mod:`repro.sim.faults`.
"""

from __future__ import annotations

import dataclasses
import os
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.cache import ResultCache, request_fingerprint
from repro.sim.faults import (
    FaultPlan,
    InjectedWorkerCrash,
    apply_execution_faults,
)
from repro.sim.results import CellFailure, CellResult, DegradationEvent
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import OutcomeAccumulator, Simulator, \
    SimulationOutcome
# Unused here, but kept: perfbench's tests read
# ``repro.sim.engine.aggregate_outcomes`` and assert it is the simulator's.
from repro.sim.simulator import aggregate_outcomes  # noqa: F401
from repro.sim.spec import (
    ExperimentSpec,
    MergedGrid,
    ResiliencePolicy,
    RunRequest,
    request_content_key,
)
from repro.workloads.bundle import TraceBundle
from repro.workloads.streaming import SampleStream

CellKey = Tuple[str, str]


@dataclass(frozen=True)
class BenchmarkJob:
    """All still-unresolved cells of one benchmark, executed as one unit.

    Grouping by benchmark is what lets the worker generate the dynamic trace
    once and replay it across every configuration; it also keeps the
    parallel-task granularity coarse enough that pickling overhead stays
    negligible next to simulation time.
    """

    benchmark: str
    seed: int
    instructions: int
    warmup_instructions: Optional[int]
    sampling: Optional[SamplingConfig]
    #: (label, config) pairs, in request order.
    cells: Tuple[Tuple[str, object], ...]
    #: 0-based execution attempt (the fault plan keys on it, and retries
    #: carry it so workers and events know which try this is).
    attempt: int = 0
    #: False on a degraded retry: the worker disables the native kernels for
    #: this job and runs the bit-identical pure-Python paths instead.
    native: bool = True
    #: The active fault-injection plan, shipped inside the job so pooled
    #: workers apply exactly the parent's plan regardless of their
    #: environment snapshot.
    faults: Optional[FaultPlan] = None


#: Per-process memo of generated unsampled (and mix-member) trace bundles,
#: keyed by the job's workload identity; sampled jobs stream and never enter
#: it, and a sampled job that runs unsampled shares the plain job's entry.
#: In a worker process this persists across jobs, so even when several jobs
#: of the same benchmark land on one worker (e.g. after a cache partially
#: resolved a grid) the trace is generated at most once per process.
#: Bounded by each bundle's *live footprint* (:meth:`TraceBundle.footprint_ops`)
#: rather than entry count: that counts the raw trace streams plus the
#: compiled token/stream caches and working-set arrays a replayed bundle pins
#: — which dwarf the traces themselves.  At the default scale (20 benchmarks
#: × 10k ops plus their compiled streams) everything stays memoized across
#: an `--all` run, while larger bundles evict LRU-first instead of pinning
#: gigabytes in a long-lived worker.
_BUNDLES: "OrderedDict[Tuple[str, int, int, Optional[int]], TraceBundle]" = \
    OrderedDict()
_BUNDLES_OP_BUDGET = 8_000_000


def _bundle_for(job: BenchmarkJob) -> TraceBundle:
    key = (job.benchmark, job.seed, job.instructions, job.warmup_instructions)
    bundle = _BUNDLES.get(key)
    if bundle is None:
        bundle = TraceBundle.generate(job.benchmark, seed=job.seed,
                                      instructions=job.instructions,
                                      warmup_instructions=job.warmup_instructions)
        _BUNDLES[key] = bundle
    else:
        _BUNDLES.move_to_end(key)
    # Footprints grow after insertion (compiled streams build lazily during
    # replay), so the budget is re-evaluated against live footprints on every
    # lookup, not just when a new bundle is generated.
    total = sum(b.footprint_ops() for b in _BUNDLES.values())
    while total > _BUNDLES_OP_BUDGET and len(_BUNDLES) > 1:
        _, evicted = _BUNDLES.popitem(last=False)
        total -= evicted.footprint_ops()
    return bundle


@contextmanager
def _native_kernels_disabled():
    """Run a block with both native kernels switched off and unloaded.

    A degraded retry must actually reach the pure-Python paths: setting the
    kill-switch environment variables is not enough on its own because
    :mod:`repro.native.build` memoizes one load decision per process, so the
    memo is dropped on entry (forcing a fresh, disabled decision) and again
    on exit (so the next native job re-decides under the restored
    environment).
    """
    from repro.native import build

    saved = {name: os.environ.get(name)
             for name in ("REPRO_TIMECORE", "REPRO_FFCORE")}
    for name in saved:
        os.environ[name] = "0"
    for kernel in ("timecore", "ffcore"):
        build.forget(kernel)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        for kernel in ("timecore", "ffcore"):
            build.forget(kernel)


def execute_job(job: BenchmarkJob,
                sample_pool: Optional[ProcessPoolExecutor] = None) -> List[CellResult]:
    """Run every cell of one benchmark job (module-level: picklable).

    This is the one place that decides how a cell runs.  A job streams its
    §9.1 samples (:func:`_execute_sampled`) exactly when its schedule
    genuinely samples the horizon
    (:meth:`~repro.sim.sampling.SamplingConfig.samples_horizon`); any other
    job — no schedule, or one that measures everything or nothing — replays
    one unsampled bundle from the ``_BUNDLES`` memo, and a multi-core mix
    job replays its members' bundles on one shared backend.

    ``sample_pool`` (only ever passed for in-parent execution) enables
    per-sample parallelism for sampled jobs: the §9.1 samples of one cell
    are mutually independent, so when a batch degenerates to a single
    benchmark job — the typical paper-scale shape, one long-horizon cell —
    the otherwise idle worker pool is used *inside* the cell instead of
    across cells (see :func:`_execute_sampled`).

    Fault-injection hooks fire first (a ``crash`` fault kills this process
    when it is a pool worker), and a non-``native`` job runs with the native
    kernels disabled — the degraded-retry path.
    """
    if job.faults is not None and not job.faults.empty:
        apply_execution_faults(job.faults, job.benchmark, job.attempt)
    if not job.native:
        with _native_kernels_disabled():
            return _execute_job_cells(job, sample_pool)
    return _execute_job_cells(job, sample_pool)


def _execute_job_cells(job: BenchmarkJob,
                       sample_pool: Optional[ProcessPoolExecutor]) -> List[CellResult]:
    from repro.workloads.profiles import parse_mix_benchmark

    parsed = parse_mix_benchmark(job.benchmark)
    if parsed is not None:
        return _execute_mix_job(job, parsed)
    if job.sampling is not None \
            and job.sampling.samples_horizon(job.instructions):
        return _execute_sampled(job, sample_pool)
    # No schedule, or one that measures everything or nothing: one window.
    bundle = _bundle_for(job)
    simulator = Simulator()
    results: List[CellResult] = []
    for label, config in job.cells:
        outcome = simulator.run_bundle(bundle, config)
        results.append(CellResult.from_outcome(outcome, label=label))
    return results


def _execute_mix_job(job: BenchmarkJob, parsed) -> List[CellResult]:
    """Run one multi-core mix job: member bundles on one shared backend.

    Each member's trace is an ordinary benchmark bundle generated under its
    deterministically derived seed, so it flows through (and shares) the
    per-process ``_BUNDLES`` memo exactly like a solo cell of the same
    (profile, derived seed) — which is what makes a one-core mix resolve to
    the very same trace a solo run would time.
    """
    from repro.sim.multicore import MultiCoreSimulator
    from repro.workloads.profiles import mix_member_seed

    mix, members = parsed
    bundles = [
        _bundle_for(dataclasses.replace(
            job, benchmark=profile_name,
            seed=mix_member_seed(mix.name, member_index, job.seed)))
        for member_index, profile_name in members]
    simulator = MultiCoreSimulator()
    results: List[CellResult] = []
    for label, config in job.cells:
        outcome = simulator.run_mix(job.benchmark, bundles, config)
        results.append(CellResult.from_outcome(outcome, label=label))
    return results


def _replay_sample(payload) -> List[SimulationOutcome]:
    """Replay one streamed sample under every cell config, in config order.

    The payload's one-sample bundle is all that is pickled to a pool worker;
    its compiled-stream caches share tokenization and per-equivalence-class
    compilation across the configs.
    """
    bundle, configs = payload
    simulator = Simulator()
    return [simulator.sample_outcome(bundle, 0, config) for config in configs]


def _execute_sampled(job: BenchmarkJob,
                     sample_pool: Optional[ProcessPoolExecutor]) -> List[CellResult]:
    """Run a sampled job sample-major, one sample generated at a time.

    Generation is serial in the parent (the workload state is one continuous
    evolution): each streamed segment is wrapped as a transient one-sample
    bundle and replayed under every cell configuration — in-process, or as
    one task on ``sample_pool``.  At most ``pool width + 2`` tasks are in
    flight; the parent waits on the *oldest* before generating further, so
    every configuration's :class:`OutcomeAccumulator` folds in sample order
    (bit-identical to a serial run) and peak memory is bounded by the
    in-flight window, not the horizon.
    """
    configs = tuple(config for _, config in job.cells)
    stream = SampleStream(job.benchmark, job.seed, job.instructions,
                          job.sampling)
    accumulators = [OutcomeAccumulator() for _ in configs]

    def absorb(outcomes: List[SimulationOutcome]) -> None:
        for accumulator, outcome in zip(accumulators, outcomes):
            accumulator.add(outcome)

    max_inflight = (getattr(sample_pool, "_max_workers", None) or 2) + 2
    inflight: "deque" = deque()
    for segment in stream.segments():
        payload = (stream.segment_bundle(segment), configs)
        if sample_pool is None:
            absorb(_replay_sample(payload))
            continue
        inflight.append(sample_pool.submit(_replay_sample, payload))
        if len(inflight) >= max_inflight:
            absorb(inflight.popleft().result())
    while inflight:
        absorb(inflight.popleft().result())
    return [CellResult.from_outcome(accumulator.finalize(), label=label)
            for accumulator, (label, _) in zip(accumulators, job.cells)]


@dataclass
class JobOutcome:
    """How one benchmark job's retry loop ended.

    ``results`` is the job's cell results when any attempt succeeded, else
    ``None`` with ``reason``/``detail`` describing the terminal failure.
    ``attempts`` counts executions actually tried.
    """

    job: BenchmarkJob
    results: Optional[List[CellResult]]
    attempts: int
    reason: str = ""
    detail: str = ""


@dataclass
class _JobState:
    """Mutable retry-loop bookkeeping for one job."""

    job: BenchmarkJob
    attempt: int = 0
    native: bool = True
    results: Optional[List[CellResult]] = None
    failed: bool = False
    reason: str = ""
    detail: str = ""

    @property
    def pending(self) -> bool:
        return self.results is None and not self.failed

    def outcome(self) -> JobOutcome:
        # Only called once the job is terminal, so the 0-based last-attempt
        # index translates directly into the number of executions tried.
        return JobOutcome(job=self.job, results=self.results,
                          attempts=self.attempt + 1,
                          reason=self.reason, detail=self.detail)


#: Failure-status -> DegradationEvent/CellFailure ``kind``/``reason``.
_FAILURE_KINDS = {
    "crash": "worker-crash",
    "timeout": "cell-timeout",
    "error": "worker-error",
}


class SweepEngine:
    """Executes experiment grids; the single entry point for all sweeps."""

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 policy: Optional[ResiliencePolicy] = None,
                 faults: Optional[FaultPlan] = None):
        self.workers = 1 if workers is None else int(workers)
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.cache = cache
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.faults = faults if faults is not None else FaultPlan.from_env()
        #: Keyed by cell *content* — everything in the request except the
        #: cosmetic label (:func:`request_content_key`, the key the
        #: multi-spec merge dedups by, so the two never disagree about which
        #: cells are the same simulation).  Different labels for the same
        #: configuration (fig7's "isa-assisted" vs fig9's "with-lock-cache"
        #: vs fig11's "watchdog") share one simulation, while the same label
        #: under different configurations or scales never aliases.
        self._memo: Dict[Tuple, CellResult] = {}
        #: Cells actually simulated by this engine (excludes memo/cache hits);
        #: the cache tests and the CLI's summary line read this.
        self.simulated_cells = 0
        #: Batches that reached the simulation stage (i.e. had at least one
        #: cell neither the memo nor the cache could serve).  A merged
        #: multi-experiment run must report exactly one such batch — the
        #: registry tests assert on this.
        self.simulation_batches = 0
        #: Every recovery/fallback step taken (retries, degraded retries,
        #: pool rebuilds surface as their triggering failures, quarantined
        #: cache entries) — drained into the suite report.
        self.degradations: List[DegradationEvent] = []
        #: Cells that exhausted the retry budget this engine's lifetime.
        self.cell_failures: List[CellFailure] = []
        #: Worker pools torn down and rebuilt after a crash or deadline.
        self.pool_rebuilds = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    # -- resolution ----------------------------------------------------------------
    def run_spec(self, spec: ExperimentSpec) -> Dict[CellKey, CellResult]:
        """Execute one declarative grid; returns every cell keyed by (benchmark, label)."""
        return self.run_requests(spec.requests())

    def run_specs(self, specs: "Sequence[ExperimentSpec] | MergedGrid") \
            -> Dict[str, Dict[CellKey, CellResult]]:
        """Execute several grids as one merged, deduplicated batch.

        The specs' cells are fused into a :class:`~repro.sim.spec.MergedGrid`
        super-spec (a pre-built one is accepted as-is), resolved in a single
        :meth:`run_requests` batch (each distinct (benchmark, configuration)
        cell simulated exactly once, the worker pool saturated across figure
        boundaries), then split back into per-spec grids keyed by spec name —
        each cell-for-cell identical to what a standalone :meth:`run_spec`
        would have produced.
        """
        merged = specs if isinstance(specs, MergedGrid) \
            else MergedGrid.merge(specs)
        resolved = self.run_requests(merged.requests())
        return merged.split(resolved)

    def run_requests(self, requests: Iterable[RunRequest]) -> Dict[CellKey, CellResult]:
        """Resolve a batch of cells via memo, cache, then simulation.

        The returned dict is keyed by grid coordinates (benchmark, label);
        should a batch contain two requests with the same coordinates but
        different inputs, the first one wins — matching the first-run-wins
        semantics of the memo.

        A job that fails every attempt does **not** raise: its cells resolve
        to ``failed`` placeholder results, the failures are recorded on
        :attr:`cell_failures`, and every other cell completes normally.
        """
        requests = list(requests)
        pending: List[RunRequest] = []
        seen: set = set()
        for request in requests:
            identity = request_content_key(request)
            if identity in self._memo or identity in seen:
                continue
            served = self._load_cached(request)
            if served is not None:
                self._memo[identity] = served
                continue
            seen.add(identity)
            pending.append(request)

        if pending:
            self.simulation_batches += 1
            for outcome in self._execute(self._group(pending)):
                self._absorb_outcome(outcome)
        if self.cache is not None:
            self.degradations.extend(self.cache.drain_corruption_events())
        resolved: Dict[CellKey, CellResult] = {}
        for request in requests:
            cell = self._memo[request_content_key(request)]
            if cell.configuration != request.label:
                cell = cell.relabel(request.benchmark, request.label)
            resolved.setdefault(request.key, cell)
        return resolved

    def _absorb_outcome(self, outcome: JobOutcome) -> None:
        """Fold one job's terminal outcome into the memo and the cache."""
        job = outcome.job
        if outcome.results is not None:
            for (label, config), cell in zip(job.cells, outcome.results):
                # Results arrive in the job's cell order, so pairing them
                # positionally stays correct even if two cells share a label.
                request = self._request_for(job, label, config)
                self._memo[request_content_key(request)] = cell
                self.simulated_cells += 1
                if self.cache is not None:
                    self.cache.store(self._fingerprint(request), cell)
            return
        for label, config in job.cells:
            request = self._request_for(job, label, config)
            self._memo[request_content_key(request)] = \
                CellResult.failed_cell(job.benchmark, label)
            self.cell_failures.append(CellFailure(
                benchmark=job.benchmark, label=label,
                attempts=outcome.attempts, reason=outcome.reason,
                detail=outcome.detail))

    @staticmethod
    def _request_for(job: BenchmarkJob, label: str, config) -> RunRequest:
        return RunRequest(
            benchmark=job.benchmark, label=label, config=config,
            instructions=job.instructions, seed=job.seed,
            warmup_instructions=job.warmup_instructions,
            sampling=job.sampling)

    def cell(self, request: RunRequest) -> CellResult:
        """Resolve a single cell (memoized)."""
        return self.run_requests([request])[request.key]

    # -- caching -------------------------------------------------------------------
    def _fingerprint(self, request: RunRequest) -> Optional[str]:
        """The cell's content hash, or ``None`` when there is no cache."""
        if self.cache is None:
            return None
        return request_fingerprint(request)

    def _load_cached(self, request: RunRequest) -> Optional[CellResult]:
        fingerprint = self._fingerprint(request)
        if fingerprint is None:
            return None
        cell = self.cache.load(fingerprint)
        if cell is None:
            return None
        # Cache keys ignore the cosmetic label, so rebrand on the way out.
        return cell.relabel(request.benchmark, request.label)

    # -- execution -----------------------------------------------------------------
    def _group(self, pending: List[RunRequest]) -> List[BenchmarkJob]:
        """Group cells by workload identity, preserving first-seen order."""
        grouped: Dict[Tuple, List[RunRequest]] = {}
        for request in pending:
            workload_key = (request.benchmark, request.seed,
                            request.instructions, request.warmup_instructions,
                            request.sampling)
            grouped.setdefault(workload_key, []).append(request)
        faults = None if self.faults.empty else self.faults
        return [BenchmarkJob(benchmark=key[0], seed=key[1], instructions=key[2],
                             warmup_instructions=key[3], sampling=key[4],
                             cells=tuple((r.label, r.config) for r in members),
                             faults=faults)
                for key, members in grouped.items()]

    def _execute(self, jobs: List[BenchmarkJob]) -> List[JobOutcome]:
        """Run jobs to terminal outcomes under the resilience policy.

        Rounds execute every still-pending job once (pooled when the batch
        and worker count allow it, in-parent otherwise), then failures are
        triaged: within budget → retry next round (with native kernels
        disabled after a crash);
        budget exhausted → quarantine.  Job order is preserved throughout,
        so the caller's merge stays deterministic.
        """
        states = [_JobState(job=job) for job in jobs]
        while True:
            round_states = [st for st in states if st.pending]
            if not round_states:
                break
            prepared = [dataclasses.replace(st.job, attempt=st.attempt,
                                            native=st.native)
                        for st in round_states]
            if self.workers > 1 and len(prepared) > 1:
                statuses = self._run_pooled_round(prepared)
            else:
                statuses = self._run_inline_round(prepared)
            for st, (status, payload) in zip(round_states, statuses):
                self._triage(st, status, payload)
        return [st.outcome() for st in states]

    def _run_pooled_round(self, prepared: List[BenchmarkJob]) \
            -> List[Tuple[str, object]]:
        """One pooled execution round; per-job ``(status, payload)`` pairs.

        Futures are awaited in submission order with the policy deadline as
        each wait's timeout, so every job gets *at least* its per-cell
        budget of wall clock (later jobs effectively more, having run in
        parallel while earlier ones were awaited).  A deadline miss or a
        broken pool poisons only this round: the pool is rebuilt afterwards,
        abandoning hung or dead workers.

        When the pool breaks, *every* pending future raises
        ``BrokenProcessPool``, but only one worker actually died.  Blaming
        them all would let a single bad cell burn its siblings' retry
        budgets (fatal at ``retries=0``).  So exactly one job per breakage
        is charged (``crash``); the rest are marked ``collateral`` and
        retry on the fresh pool for free.  Attribution by first-raiser is
        approximate — if the wrong job is charged, the real culprit's free
        retry crashes again and it gets charged then, so the total round
        count stays bounded by the summed budgets.
        """
        pool = self._pool()
        futures = [pool.submit(execute_job, job) for job in prepared]
        statuses: List[Tuple[str, object]] = []
        rebuild = False
        crash_blamed = False
        for job, future in zip(prepared, futures):
            try:
                statuses.append(("ok",
                                 future.result(
                                     timeout=self.policy.deadline_seconds)))
            except FutureTimeoutError:
                rebuild = True
                future.cancel()
                statuses.append((
                    "timeout",
                    f"exceeded the per-cell deadline of "
                    f"{self.policy.deadline_seconds:g}s"))
            except BrokenProcessPool as exc:
                rebuild = True
                if crash_blamed:
                    statuses.append(("collateral",
                                     "pool broke under a sibling job while "
                                     "this cell was pending"))
                else:
                    crash_blamed = True
                    statuses.append(("crash",
                                     str(exc) or "worker process died"))
            except Exception as exc:
                statuses.append(("error", f"{type(exc).__name__}: {exc}"))
        if rebuild:
            self._rebuild_pool()
        return statuses

    def _run_inline_round(self, prepared: List[BenchmarkJob]) \
            -> List[Tuple[str, object]]:
        """One in-parent execution round (serial, or single-job sample fan-out).

        With ``workers > 1`` and a single job the pool still serves as the
        §9.1 per-sample fan-out inside :func:`execute_job`; a sample worker
        dying there surfaces as ``BrokenProcessPool`` here and is handled
        exactly like a pooled crash.  Deadlines cannot preempt in-parent
        execution, so ``slow`` cells only time out on pooled rounds.
        """
        statuses: List[Tuple[str, object]] = []
        sample_pool = self._pool() \
            if self.workers > 1 and len(prepared) == 1 else None
        for job in prepared:
            try:
                statuses.append(
                    ("ok", execute_job(job, sample_pool=sample_pool)))
            except InjectedWorkerCrash as exc:
                statuses.append(("crash", str(exc)))
            except BrokenProcessPool as exc:
                self._rebuild_pool()
                sample_pool = self._pool() if sample_pool is not None else None
                statuses.append(("crash",
                                 str(exc) or "sample worker process died"))
            except Exception as exc:
                statuses.append(("error", f"{type(exc).__name__}: {exc}"))
        return statuses

    def _triage(self, st: _JobState, status: str, payload: object) -> None:
        """Absorb one attempt's result: success, retry, or quarantine."""
        if status == "ok":
            st.results = payload  # type: ignore[assignment]
            return
        if status == "collateral":
            # The pool broke under a different job while this one was
            # pending; its result was lost through no fault of its own.
            # Retry on the fresh pool without touching its budget and
            # without degrading native kernels.
            self.degradations.append(DegradationEvent(
                kind="pool-collateral", subject=st.job.benchmark,
                attempt=st.attempt, detail=str(payload)))
            return
        kind = _FAILURE_KINDS[status]
        detail = str(payload)
        self.degradations.append(DegradationEvent(
            kind=kind, subject=st.job.benchmark, attempt=st.attempt,
            detail=detail))
        if st.attempt < self.policy.retries:
            st.attempt += 1
            if status == "crash" and st.native:
                # A crash with the native kernels live is most plausibly a
                # native-code fault; the Python paths are golden-equal, so
                # trade speed for survival on the remaining attempts.
                st.native = False
                self.degradations.append(DegradationEvent(
                    kind="native-disabled-retry", subject=st.job.benchmark,
                    attempt=st.attempt,
                    detail="retrying with REPRO_TIMECORE=0/REPRO_FFCORE=0 "
                           "after a worker crash"))
            return
        st.failed = True
        st.reason = kind
        st.detail = detail

    def _rebuild_pool(self) -> None:
        """Tear down a broken/hung pool so the next round gets a fresh one.

        ``shutdown(wait=False, cancel_futures=True)`` abandons the executor
        without joining (a hung worker would block a plain shutdown
        forever); still-running worker processes are then terminated
        best-effort so they don't linger as orphans.
        """
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        self.pool_rebuilds += 1
        processes = list(getattr(executor, "_processes", {}).values())
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for process in processes:
            try:
                if process.is_alive():
                    process.terminate()
            except Exception:
                continue

    def _pool(self) -> ProcessPoolExecutor:
        """The engine's worker pool, created lazily and reused across batches.

        Reuse is what makes the worker-side ``_BUNDLES`` memo effective
        beyond one batch: when several figures resolve through one engine,
        later batches land on workers that already hold the traces.  The
        pool lives until :meth:`close` (or interpreter exit — stdlib atexit
        hooks join the workers).
        """
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def close(self) -> None:
        """Shut down the worker pool (idempotent; engine stays usable)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
