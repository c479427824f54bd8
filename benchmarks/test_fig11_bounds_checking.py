"""Figure 11: integrating bounds checking (full memory safety).

Paper geo-means: Watchdog (UAF only) ≈15%, +bounds fused into the check µop
≈18%, +bounds as a separate µop ≈24%.
"""

from benchmarks.helpers import report, run_experiment


def test_fig11_bounds_checking(benchmark, settings, engine):
    experiment = run_experiment(benchmark, "fig11", settings, engine)
    report(experiment)
    result = experiment.result

    uaf_only = result.summary["watchdog_geomean_percent"]
    fused = result.summary["bounds_fused_geomean_percent"]
    two_uops = result.summary["bounds_two_uop_geomean_percent"]
    # Shape: full memory safety costs more than UAF-only checking; performing
    # the bound comparison in the existing check µop is cheaper than injecting
    # a second µop per memory access.
    assert uaf_only < two_uops
    assert fused <= two_uops
    assert fused >= uaf_only * 0.95
    assert two_uops < 60.0
