"""Figure 9: performance with and without the lock location cache.

Paper geo-means: 15% with the 4KB lock location cache, 24% without it; the
lock cache misses less than once per 1000 instructions for 17 of the 20
benchmarks.
"""

from benchmarks.helpers import report, run_experiment


def test_fig9_lock_location_cache(benchmark, settings, engine):
    experiment = run_experiment(benchmark, "fig9", settings, engine)
    report(experiment)
    result = experiment.result

    with_cache = result.summary["with-lock-cache_geomean_percent"]
    without_cache = result.summary["without-lock-cache_geomean_percent"]
    # Shape: removing the dedicated lock-location bandwidth makes checks
    # contend with program loads for the data-cache ports and costs several
    # additional points of overhead.
    assert without_cache > with_cache
    assert without_cache - with_cache >= 3.0
    # Lock location locality: the vast majority of benchmarks stay below one
    # lock-cache miss per 1000 µops (paper: 17 of 20 per 1000 instructions).
    assert result.summary["benchmarks_below_1_mpki"] >= 15
