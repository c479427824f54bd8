"""§9.2: efficacy against the Juliet CWE-416/562 use-after-free cases.

The paper runs the 291 use-after-free test cases (CWE-416 and CWE-562) from
the NIST Juliet suite and reports that Watchdog detects and thwarts the
attack in all 291 cases with no false positives.  This experiment runs the
generated Juliet-style suite (faulty cases plus benign twins) through the
functional machine under the ISA-assisted configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import WatchdogConfig
from repro.experiments.common import (
    ExperimentDefinition,
    NO_SAMPLING_TIERS,
)
from repro.sim.results import ExperimentResult
from repro.sim.simulator import Simulator
from repro.workloads.juliet import JulietSuite, JULIET_CASE_COUNT


@dataclass
class JulietOutcome:
    """Detailed per-case outcomes (useful for debugging a failed pattern)."""

    detected: List[str] = field(default_factory=list)
    missed: List[str] = field(default_factory=list)
    false_positives: List[str] = field(default_factory=list)
    per_pattern_detected: Dict[str, int] = field(default_factory=dict)
    per_pattern_total: Dict[str, int] = field(default_factory=dict)


def run(case_count: int = JULIET_CASE_COUNT,
        config: Optional[WatchdogConfig] = None,
        benign_count: Optional[int] = None) -> ExperimentResult:
    """Run the Juliet-style suite and count detections / false positives."""
    config = config or WatchdogConfig.isa_assisted_uaf()
    simulator = Simulator()
    suite = JulietSuite(case_count=case_count)
    outcome = JulietOutcome()

    for case in suite.faulty_cases():
        result = simulator.run_program(case.program, config)
        outcome.per_pattern_total[case.pattern] = \
            outcome.per_pattern_total.get(case.pattern, 0) + 1
        if result.detected:
            outcome.detected.append(case.name)
            outcome.per_pattern_detected[case.pattern] = \
                outcome.per_pattern_detected.get(case.pattern, 0) + 1
        else:
            outcome.missed.append(case.name)

    benign_limit = benign_count if benign_count is not None else case_count
    for case in suite.benign_cases(benign_limit):
        result = simulator.run_program(case.program, config)
        if result.detected:
            outcome.false_positives.append(case.name)

    result = ExperimentResult(name="sec9.2-juliet-use-after-free")
    for pattern, total in outcome.per_pattern_total.items():
        result.add_value("cases", pattern, float(total))
        result.add_value("detected", pattern,
                         float(outcome.per_pattern_detected.get(pattern, 0)))
    result.add_summary("cases", float(case_count))
    result.add_summary("detected", float(len(outcome.detected)))
    result.add_summary("missed", float(len(outcome.missed)))
    result.add_summary("false_positives", float(len(outcome.false_positives)))
    result.notes.append("paper: 291/291 detected, zero false positives")
    if outcome.missed:
        result.notes.append("missed cases: " + ", ".join(outcome.missed[:10]))
    if outcome.false_positives:
        result.notes.append("false positives: " + ", ".join(outcome.false_positives[:10]))
    return result


DEFINITION = ExperimentDefinition(
    name="juliet",
    title="sec9.2-juliet-use-after-free",
    description="§9.2 — Juliet CWE-416/562 use-after-free detection efficacy",
    # Standalone: the full 291-case suite runs through the functional
    # machine regardless of sweep settings (it completes in well under a
    # second, so no reduced tier is needed).
    extract=lambda context: run(),
    expected={"cases": 291.0, "detected": 291.0, "false_positives": 0.0},
    sampling_tiers=NO_SAMPLING_TIERS,
)
