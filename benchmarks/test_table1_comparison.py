"""Table 1: comparison of use-after-free checking approaches."""

from benchmarks.helpers import report, run_experiment
from repro.experiments import table1_comparison


def test_table1_comparison(benchmark, settings, engine):
    experiment = run_experiment(benchmark, "table1", settings, engine)
    report(experiment)
    result = experiment.result
    print(table1_comparison.format_table())
    # Every qualitative column derived from the executable models must match
    # the paper's table.
    assert result.summary["mismatches_vs_paper"] == 0
    assert result.summary["approaches"] == 11
