"""Shared running and reporting helpers for the benchmark harness.

Importable as :mod:`benchmarks.helpers` — benchmark modules must not import
from ``conftest`` (two conftest modules in one session shadow each other).
"""

from repro.experiments import run_experiments


def run_experiment(benchmark, name, settings, engine):
    """Time one registered experiment through the registry runner (one
    round) and return its :class:`~repro.sim.results.ExperimentReport`."""
    suite = benchmark.pedantic(run_experiments, args=([name],),
                               kwargs={"settings": settings, "engine": engine},
                               rounds=1, iterations=1)
    return suite.reports[0]


def report(experiment):
    """Print one experiment's table and its paper-vs-measured checks.

    A check without a measured value means the experiment no longer emits
    a metric the paper states; that fails the calling test.
    """
    lines = [f"\n=== {experiment.result.name} ===",
             experiment.result.format_table(), "--- paper vs measured ---"]
    lines.extend(check.describe() for check in experiment.checks)
    print("\n".join(lines))
    missing = [check.metric for check in experiment.checks
               if check.measured is None]
    assert not missing, f"{experiment.name}: no measured {missing}"
