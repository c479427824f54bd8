"""Table 2: simulated processor configuration."""

from benchmarks.helpers import report, run_experiment
from repro.experiments import table2_config


def test_table2_configuration(benchmark, settings, engine):
    experiment = run_experiment(benchmark, "table2", settings, engine)
    report(experiment)
    result = experiment.result
    print(table2_config.format_table())
    assert result.summary["mismatches_vs_paper"] == 0
