"""Ablations: idealized shadow accesses (§9.3) and rename-time copy elimination (§6.2)."""

from benchmarks.helpers import report, run_experiment


def test_design_ablations(benchmark, settings, engine):
    experiment = run_experiment(benchmark, "ablations", settings, engine)
    report(experiment)
    result = experiment.result

    isa = result.summary["isa-assisted_geomean_percent"]
    ideal = result.summary["ideal-shadow_geomean_percent"]
    no_elim = result.summary["no-copy-elimination_geomean_percent"]
    # Idealizing the shadow accesses isolates the cache-pressure component.
    assert ideal < isa
    # Disabling copy elimination adds explicit metadata-copy µops, so it can
    # only cost more front-end bandwidth than the optimized design.
    assert no_elim >= isa * 0.95
