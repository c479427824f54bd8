"""Figure 10: shadow metadata memory overhead (words and pages).

Paper geo-means: 32% counted in words touched, 56% counted in 4KB pages
touched (page-granularity allocation of the shadow space fragments it).
"""

from benchmarks.helpers import report, run_experiment


def test_fig10_memory_overhead(benchmark, settings, engine):
    experiment = run_experiment(benchmark, "fig10", settings, engine)
    report(experiment)
    result = experiment.result

    words = result.summary["words_geomean_percent"]
    pages = result.summary["pages_geomean_percent"]
    # Shape: page-granularity accounting always costs more than word
    # accounting (fragmentation), both are well below the 2x worst case on
    # average, and words land in the tens of percent.
    assert pages > words > 0
    assert words <= 100.0
    assert pages <= 200.0   # worst case is two shadow pages per data page
    # Per-benchmark: pointer-dense benchmarks have higher word overhead than
    # the float codes with almost no pointers.
    assert result.series["words"]["mcf"] > result.series["words"]["lbm"]
