"""Figure 5: fraction of memory accesses classified as pointer operations.

Paper: conservative ≈31% average, ISA-assisted ≈18% average.
"""

from benchmarks.helpers import report, run_experiment


def test_fig5_pointer_identification(benchmark, settings, engine):
    experiment = run_experiment(benchmark, "fig5", settings, engine)
    report(experiment)
    result = experiment.result

    conservative = result.summary["conservative_avg_percent"]
    isa = result.summary["isa_assisted_avg_percent"]
    # Shape: ISA-assisted identification marks substantially fewer accesses,
    # and the averages land near the paper's 31% / 18%.
    assert conservative > isa
    assert 20.0 <= conservative <= 45.0
    assert 10.0 <= isa <= 28.0
    # Per-benchmark shape: pointer-dense integer codes classify far more
    # accesses than the float/array codes.
    assert result.series["isa-assisted"]["mcf"] > result.series["isa-assisted"]["lbm"]
    assert result.series["conservative"]["gcc"] > result.series["conservative"]["milc"]
