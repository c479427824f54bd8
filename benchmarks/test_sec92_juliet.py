"""§9.2: efficacy against the Juliet-style CWE-416/562 use-after-free suite.

Paper: all 291 use-after-free test cases detected, zero false positives.
"""

from benchmarks.helpers import report, run_experiment
from repro.experiments import sec92_juliet


def test_sec92_juliet_suite(benchmark, settings, engine):
    result = run_experiment(benchmark, "juliet", settings, engine)
    report(result, sec92_juliet.EXPECTED)

    assert result.summary["cases"] == 291
    assert result.summary["detected"] == 291
    assert result.summary["missed"] == 0
    assert result.summary["false_positives"] == 0
