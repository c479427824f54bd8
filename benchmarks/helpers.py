"""Shared running and reporting helpers for the benchmark harness.

Importable as :mod:`benchmarks.helpers` — benchmark modules must not import
from ``conftest`` (two conftest modules in one session shadow each other).
"""

from repro.experiments import run_experiments


def run_experiment(benchmark, name, settings, engine):
    """Time one registered experiment through the registry runner (one
    round) and return its result."""
    suite = benchmark.pedantic(run_experiments, args=([name],),
                               kwargs={"settings": settings, "engine": engine},
                               rounds=1, iterations=1)
    return suite.reports[0].result


def report(result, expected):
    """Print a paper-vs-measured report for one experiment."""
    lines = [f"\n=== {result.name} ===", result.format_table(),
             "--- paper vs measured ---"]
    for key, paper_value in expected.items():
        measured = result.summary.get(key)
        measured_text = f"{measured:.1f}" if isinstance(measured, float) else str(measured)
        lines.append(f"{key:<40} paper={paper_value:<8} measured={measured_text}")
    print("\n".join(lines))
