"""Command-line interface: list and run the paper's experiments.

Examples::

    python -m repro list
    python -m repro run fig7 --workers 4
    python -m repro run fig7 fig9 --quick --no-cache
    python -m repro run --all --sampling quick --report report.json
    python -m repro run --all --workers 8 --cache-dir /tmp/repro-cache

``run`` resolves every requested experiment through the declarative registry
(:data:`repro.experiments.REGISTRY`): the experiments' grids are merged into
one deduplicated super-spec and executed as a single sweep batch, so cells
shared between figures are simulated once; with caching enabled (default:
``.repro-cache/``) repeated invocations skip already-computed cells entirely.
Each experiment's summary metrics are checked against the paper's expected
values — deviations beyond tolerance fail the invocation (``--no-check``
opts out) — and ``--report`` writes the full measured-vs-expected record,
including cell provenance, as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional

from repro.experiments import REGISTRY, run_experiments
from repro.sim.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.sim.engine import SweepEngine
from repro.sim.faults import FaultPlan
from repro.sim.journal import RunJournal
from repro.sim.sampling import SAMPLING_SCHEDULES
from repro.sim.spec import ResiliencePolicy, settings_from_args
from repro.workloads.profiles import (
    benchmark_names,
    long_profile_names,
    one_b_profile_names,
    paper_profile_names,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the Watchdog reproduction's figure/table experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                     help="experiments to run (see `list`), e.g. "
                          "`repro run fig7 fig9`")
    run.add_argument("--figure", "-f", dest="figures", action="append",
                     metavar="NAME", choices=sorted(REGISTRY),
                     help="deprecated alias for the positional EXPERIMENT "
                          "arguments (repeatable)")
    run.add_argument("--all", action="store_true",
                     help="run every registered experiment as one merged sweep")
    run.add_argument("--no-check", action="store_true",
                     help="do not fail the run when measured metrics deviate "
                          "from the paper's expected values beyond tolerance")
    run.add_argument("--report", metavar="FILE", default=None,
                     help="write the full measured-vs-expected record "
                          "(checks, deviations, cell provenance) as JSON")
    run.add_argument("--workers", "-j", type=int, default=1, metavar="N",
                     help="worker processes for the sweep engine (default: 1)")
    run.add_argument("--instructions", "-n", type=int, default=None, metavar="N",
                     help="dynamic macro instructions per benchmark run")
    run.add_argument("--seed", type=int, default=None,
                     help="workload seed (default: 7)")
    run.add_argument("--benchmarks", "-b", metavar="A,B,...",
                     help="comma-separated benchmark subset (default: all 20)")
    run.add_argument("--quick", action="store_true",
                     help="reduced scale: 4 benchmarks, short traces")
    run.add_argument("--sampling", choices=sorted(SAMPLING_SCHEDULES),
                     default="none",
                     help="periodic §9.1 sampling schedule: 'paper' "
                          "(480M/10M/10M, 2%% measured), 'paper-scaled' "
                          "(the paper's 96/2/2 structure at a 10M period, "
                          "fits the 100M *-paper horizons), 'quick' "
                          "(80k/10k/10k, 10%% measured), or 'none' "
                          "(default; measure everything)")
    run.add_argument("--no-timecore", action="store_true",
                     help="disable the native timing core (C kernel) and "
                          "run the pure-Python timing loops")
    run.add_argument("--no-cache", action="store_true",
                     help="disable the persistent result cache")
    run.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
                     help=f"result cache location (default: {DEFAULT_CACHE_DIR})")
    run.add_argument("--retries", type=int, default=None, metavar="N",
                     help="re-executions per crashed/timed-out cell before "
                          "quarantine (default: 2, or REPRO_RETRIES)")
    run.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                     help="per-cell wall-clock budget, enforced on pooled "
                          "rounds with --workers > 1 (default: unlimited, "
                          "or REPRO_DEADLINE)")
    run.add_argument("--resume", action="store_true",
                     help="continue an interrupted run: serve cells the "
                          "previous run's journal completed, re-simulate "
                          "only failed/unreached ones")
    run.add_argument("--journal", metavar="FILE", default=None,
                     help="completed/failed-cell journal location (default: "
                          "<cache-dir>/journal.jsonl)")
    run.add_argument("--faults", metavar="SPEC", default=None,
                     help="deterministic fault-injection plan, e.g. "
                          "'crash:gzip:0,slow:mcf:*:5,corrupt:gzip/baseline,"
                          "selftest:timecore' (also: REPRO_FAULTS)")

    cache = sub.add_parser("cache", help="inspect or prune the result cache")
    cache.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
                       help=f"result cache location (default: {DEFAULT_CACHE_DIR})")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached cell (e.g. entries orphaned "
                            "by code changes)")

    bench = sub.add_parser(
        "bench", help="time the fig7 cell matrix and write BENCH_<rev>.json")
    bench.add_argument("--quick", action="store_true",
                       help="reduced scale: 4 benchmarks, short traces "
                            "(what the CI perf-smoke job runs)")
    bench.add_argument("--benchmarks", "-b", metavar="A,B,...",
                       help="comma-separated benchmark subset")
    bench.add_argument("--instructions", "-n", type=int, default=None,
                       metavar="N", help="dynamic macro instructions per run")
    bench.add_argument("--seed", type=int, default=None,
                       help="workload seed (default: 7)")
    bench.add_argument("--sampling", choices=sorted(SAMPLING_SCHEDULES),
                       default="none",
                       help="run the matrix under a §9.1 sampling schedule "
                            "(see `run --sampling`)")
    bench.add_argument("--no-sampled", action="store_true",
                       help="skip the sampled long-profile cell (timed by "
                            "default and gated by --check)")
    bench.add_argument("--no-fast-forward", action="store_true",
                       help="skip the skip-window-only fast-forward cell")
    bench.add_argument("--no-paper", action="store_true",
                       help="skip the 100M-instruction paper-scale sampled "
                            "smoke cell")
    bench.add_argument("--no-suite", action="store_true",
                       help="skip the merged registry suite cell "
                            "(`repro run --all` at quick scale)")
    bench.add_argument("--no-timecore", action="store_true",
                       help="disable the native timing core (C kernel) "
                            "everywhere and skip its gated matrix cell")
    bench.add_argument("--no-mix", action="store_true",
                       help="skip the 4-core multi-core mix cell (timed by "
                            "default and gated by --check)")
    bench.add_argument("--no-one-b", action="store_true",
                       help="skip the billion-instruction streaming smoke "
                            "cell (timed by default; --check gates both its "
                            "throughput floor and its peak-RSS ceiling)")
    bench.add_argument("--output", "-o", metavar="FILE", default=None,
                       help="output path (default: BENCH_<rev>.json)")
    bench.add_argument("--check", metavar="BASELINE.json", default=None,
                       help="fail if uops/sec regresses beyond the tolerance "
                            "vs this baseline record")
    bench.add_argument("--max-regression", type=float, default=0.30,
                       metavar="FRACTION",
                       help="allowed throughput regression for --check "
                            "(default: 0.30)")
    bench.add_argument("--allow-degraded", action="store_true",
                       help="do not fail the bench when a native kernel "
                            "unexpectedly fell back to pure Python (by "
                            "default any unexpected degradation event fails, "
                            "so a dead kernel can't masquerade as a perf "
                            "regression)")
    return parser


def _cmd_list() -> int:
    from repro.workloads.profiles import MIXES

    print("registered experiments (grid experiments share one merged sweep):")
    for name, definition in REGISTRY.items():
        kind = "grid" if definition.has_grid else "standalone"
        tiers = "/".join(definition.sampling_tiers)
        print(f"  {name:<12} [{kind}, sampling: {tiers}] "
              f"{definition.description}")
    print()
    print("workload mixes (multi-core benchmark tokens: 'mix1', 'mix1:2', "
          "'mix1:1@3'):")
    for mix in MIXES:
        members = " + ".join(mix.members)
        print(f"  {mix.name:<12} {members:<28} {mix.description}")
    return 0


def _cmd_run(args) -> int:
    from repro.errors import ConfigurationError

    # dict.fromkeys: drop repeats (e.g. the same name positionally and via
    # the --figure alias) while preserving first-seen order.
    names: List[str] = list(REGISTRY) if args.all \
        else list(dict.fromkeys(list(args.experiments)
                                + list(args.figures or [])))
    if not names:
        print("nothing to run: pass experiment names (see `list`) or --all",
              file=sys.stderr)
        return 2
    unknown_experiments = [name for name in names if name not in REGISTRY]
    if unknown_experiments:
        print(f"unknown experiment(s): {', '.join(unknown_experiments)}; "
              f"known: {', '.join(REGISTRY)}", file=sys.stderr)
        return 2

    try:
        settings = settings_from_args(args)
    except ConfigurationError as error:
        # E.g. a paper-scale horizon under a schedule that measures nothing.
        print(f"invalid settings: {error}", file=sys.stderr)
        return 2
    from repro.workloads.profiles import parse_mix_benchmark

    known = set(benchmark_names()) | set(long_profile_names()) \
        | set(paper_profile_names()) | set(one_b_profile_names())
    unknown = []
    for name in settings.benchmarks:
        if name in known:
            continue
        try:
            # Mix tokens ("mix1", "mix1:2", "mix1:1@3") are valid benchmark
            # names too; a malformed one gets its specific parse error.
            if parse_mix_benchmark(name) is not None:
                continue
        except ConfigurationError as error:
            print(f"invalid mix benchmark: {error}", file=sys.stderr)
            return 2
        unknown.append(name)
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}; "
              f"known: {', '.join(sorted(known))} (plus mix tokens, "
              f"see `list`)", file=sys.stderr)
        return 2
    if settings.sampling is not None \
            and not settings.sampling.samples_horizon(settings.instructions):
        print(f"note: --sampling {args.sampling} measures "
              f"{'everything' if settings.sampling.degenerate else 'nothing'} "
              f"at {settings.instructions} instructions per run; cells "
              f"execute unsampled (raise --instructions past "
              f"{settings.sampling.fast_forward + settings.sampling.warmup} "
              f"to sample)", file=sys.stderr)
    if args.no_timecore:
        # Via the environment rather than a Simulator argument so sweep
        # worker processes inherit the switch.
        os.environ["REPRO_TIMECORE"] = "0"
    if args.faults is not None:
        # Also via the environment: pooled workers and kernel loaders read
        # the plan from REPRO_FAULTS, and validating here turns a typo into
        # a usage error instead of a mid-sweep surprise.
        try:
            FaultPlan.parse(args.faults)
        except ConfigurationError as error:
            print(f"invalid --faults spec: {error}", file=sys.stderr)
            return 2
        os.environ["REPRO_FAULTS"] = args.faults
    try:
        policy = ResiliencePolicy.from_env()
        overrides = {}
        if args.retries is not None:
            overrides["retries"] = args.retries
        if args.deadline is not None:
            overrides["deadline_seconds"] = args.deadline
        if overrides:
            policy = dataclasses.replace(policy, **overrides)
    except ConfigurationError as error:
        print(f"invalid resilience settings: {error}", file=sys.stderr)
        return 2
    cache: Optional[ResultCache] = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
    journal_path = args.journal or os.path.join(args.cache_dir,
                                                "journal.jsonl")
    journal = RunJournal(journal_path, resume=args.resume)
    if args.resume and journal.stale:
        print("[journal] previous journal is stale (different code or "
              "schema); starting fresh", file=sys.stderr)
    engine = SweepEngine(workers=args.workers, cache=cache, policy=policy,
                         journal=journal)

    try:
        suite = run_experiments(names, settings=settings, engine=engine)
    finally:
        # Join the worker pool before interpreter teardown; relying on the
        # stdlib atexit hook can race fd teardown and spew spurious OSErrors.
        engine.close()

    for report in suite.reports:
        definition = REGISTRY[report.name]
        print(f"=== {report.result.name} ===")
        print(definition.render_result(report.result))
        for check in report.checks:
            print(f"[check] {check.describe()}")
        print()

    stats = suite.engine
    cache_text = (f"cache hits {stats['cache_hits']}, cache dir {cache.root}"
                  if cache is not None else "cache disabled")
    journal_text = f", journal served {stats['journal_cells']} cells" \
        if args.resume else ""
    print(f"[engine] simulated {stats['simulated_cells']} cells "
          f"({stats['merged_unique_cells']} unique of "
          f"{stats['grid_cells_total']} grid cells) in "
          f"{stats['simulation_batches']} batch(es), "
          f"sweep {stats['sweep_seconds']:.1f}s, "
          f"workers {stats['workers']}, {cache_text}{journal_text}")

    for event in suite.degradations:
        print(f"[degraded] {event.describe()}", file=sys.stderr)
    for failure in suite.cell_failures:
        print(f"[failed] {failure.describe()}", file=sys.stderr)

    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(suite.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[report] wrote {args.report}")

    if suite.cell_failures:
        # Quarantined cells always fail the invocation — --no-check opts out
        # of paper-value deviations, not of cells that never produced data.
        print(f"[failed] {len(suite.cell_failures)} cell(s) exhausted the "
              f"retry budget; rerun with --resume to retry only those cells",
              file=sys.stderr)
        return 1
    if not suite.ok:
        failed = ", ".join(report.name for report in suite.failures())
        print(f"[check] metrics deviate from the paper beyond tolerance in: "
              f"{failed}", file=sys.stderr)
        if not args.no_check:
            return 1
    return 0


def _cmd_bench(args) -> int:
    from repro.errors import ConfigurationError
    from repro.sim import bench

    kwargs = {}
    if args.instructions is not None:
        kwargs["instructions"] = args.instructions
    if args.seed is not None:
        kwargs["seed"] = args.seed
    try:
        record = _run_bench_record(bench, args, kwargs)
    except ConfigurationError as error:
        print(f"invalid bench settings: {error}", file=sys.stderr)
        return 2
    print(bench.format_summary(record))
    path = bench.write_record(record, output=args.output)
    print(f"[bench] wrote {path}")
    if args.check:
        try:
            ok, message = bench.check_against_baseline(
                record, args.check, max_regression=args.max_regression)
        except (OSError, ValueError, KeyError) as error:
            print(f"[bench] cannot read baseline {args.check}: {error!r}",
                  file=sys.stderr)
            return 2
        print(f"[bench] {message}")
        if not ok:
            return 1
    if record.get("degradations") and not args.allow_degraded:
        # A perf number measured on the pure-Python fallback is not a perf
        # number for the native path: fail rather than let a dead kernel
        # masquerade as (or mask) a regression.
        print("[bench] unexpected degradation(s) during perf cells — the "
              "measurements above do not describe the native path "
              "(--allow-degraded to accept):", file=sys.stderr)
        for event in record["degradations"]:
            print(f"[bench]   {event.get('kind')}: {event.get('subject')} — "
                  f"{event.get('detail')}", file=sys.stderr)
        return 1
    return 0


def _run_bench_record(bench, args, kwargs):
    if args.no_timecore:
        os.environ["REPRO_TIMECORE"] = "0"
    return bench.run_bench(
        benchmarks=tuple(args.benchmarks.split(",")) if args.benchmarks else None,
        quick=args.quick,
        sampling=SAMPLING_SCHEDULES[args.sampling](),
        include_sampled=not args.no_sampled,
        include_fast_forward=not args.no_fast_forward,
        include_paper=not args.no_paper,
        include_suite=not args.no_suite,
        include_timecore=not args.no_timecore,
        include_mix=not args.no_mix,
        include_one_b=not args.no_one_b,
        **kwargs)


def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached cells from {cache.root}")
    else:
        print(f"{len(cache)} cached cells in {cache.root}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
