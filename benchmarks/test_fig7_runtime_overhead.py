"""Figure 7: runtime overhead of use-after-free checking.

Paper geo-means: conservative ≈25%, ISA-assisted ≈15%; §9.3 reports ≈11% with
idealized shadow accesses.
"""

from benchmarks.helpers import report, run_experiment
from repro.experiments import run_experiments


def test_fig7_runtime_overhead(benchmark, settings, engine):
    experiment = run_experiment(benchmark, "fig7", settings, engine)
    report(experiment)
    result = experiment.result

    conservative = result.summary["conservative_geomean_percent"]
    isa = result.summary["isa-assisted_geomean_percent"]
    ideal = result.summary["ideal-shadow_geomean_percent"]
    # Shape: both configurations cost something; conservative identification
    # costs more than ISA-assisted; idealizing the shadow accesses reduces the
    # overhead further; magnitudes are in the paper's low-tens-of-percent
    # regime rather than the 2x of software-only approaches.
    assert conservative > isa > 0
    assert ideal < isa
    assert isa < 40.0
    assert conservative < 50.0


def test_ideal_shadow_ablation(settings, engine):
    """§9.3: shadow-access cache pressure accounts for part of the overhead."""
    result = run_experiments(["fig7"], settings=settings,
                             engine=engine).reports[0].result
    assert result.summary["ideal-shadow_geomean_percent"] < \
        result.summary["isa-assisted_geomean_percent"]
