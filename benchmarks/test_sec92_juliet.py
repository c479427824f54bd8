"""§9.2: efficacy against the Juliet-style CWE-416/562 use-after-free suite.

Paper: all 291 use-after-free test cases detected, zero false positives.
"""

from benchmarks.helpers import report, run_experiment


def test_sec92_juliet_suite(benchmark, settings, engine):
    experiment = run_experiment(benchmark, "juliet", settings, engine)
    report(experiment)
    result = experiment.result

    assert result.summary["cases"] == 291
    assert result.summary["detected"] == 291
    assert result.summary["missed"] == 0
    assert result.summary["false_positives"] == 0
