"""Figure 8: µop overhead and breakdown.

Paper averages: total ≈44%; checks ≈29%, pointer loads ≈4%, pointer stores
≈2%, other (selects, frame management, allocator instrumentation) ≈9%.
"""

from benchmarks.helpers import report, run_experiment


def test_fig8_uop_overhead(benchmark, settings, engine):
    experiment = run_experiment(benchmark, "fig8", settings, engine)
    report(experiment)
    result = experiment.result

    total = result.summary["total_avg_percent"]
    checks = result.summary["checks_avg_percent"]
    loads = result.summary["pointer_loads_avg_percent"]
    stores = result.summary["pointer_stores_avg_percent"]
    other = result.summary["other_avg_percent"]
    # Shape: checks dominate the injected µops; pointer metadata stores are
    # rarer than pointer metadata loads; the total sits in the ~40% range.
    assert checks > other > loads > stores
    assert 30.0 <= total <= 60.0
    assert 20.0 <= checks <= 40.0
    # The breakdown must account for the whole overhead.
    assert abs(total - (checks + loads + stores + other)) < 1.0
