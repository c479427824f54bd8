"""Table 2: simulated processor configuration.

This "experiment" simply renders the machine configuration the timing model
uses and checks the headline parameters against the paper's table.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentDefinition,
    NO_SAMPLING_TIERS,
)
from repro.pipeline.config import MachineConfig
from repro.sim.results import ExperimentResult

EXPECTED = {
    "clock_ghz": 3.2,
    "issue_width": 6,
    "rob_entries": 168,
    "iq_entries": 54,
    "lq_entries": 64,
    "sq_entries": 36,
    "l1d_kb": 32,
    "l2_kb": 256,
    "l3_mb": 16,
    "lock_cache_kb": 4,
}


def run() -> ExperimentResult:
    """Check the simulated machine configuration against Table 2."""
    machine = MachineConfig()
    result = ExperimentResult(name="table2-processor-configuration")
    measured = {
        "clock_ghz": machine.clock_ghz,
        "issue_width": float(machine.issue_width),
        "rob_entries": float(machine.rob_entries),
        "iq_entries": float(machine.iq_entries),
        "lq_entries": float(machine.lq_entries),
        "sq_entries": float(machine.sq_entries),
        "l1d_kb": machine.hierarchy.l1d.size_bytes / 1024,
        "l2_kb": machine.hierarchy.l2.size_bytes / 1024,
        "l3_mb": machine.hierarchy.l3.size_bytes / (1024 * 1024),
        "lock_cache_kb": machine.hierarchy.lock_cache.size_bytes / 1024,
    }
    mismatches = 0
    for key, value in measured.items():
        result.add_value("measured", key, float(value))
        result.add_value("paper", key, float(EXPECTED[key]))
        if abs(float(value) - float(EXPECTED[key])) > 1e-9:
            mismatches += 1
    result.add_summary("mismatches_vs_paper", float(mismatches))
    result.notes.append(machine.describe())
    return result


def format_table() -> str:
    """Render the Table 2-style configuration listing."""
    return MachineConfig().describe()


DEFINITION = ExperimentDefinition(
    name="table2",
    title="table2-processor-configuration",
    description="Table 2 — simulated processor configuration",
    extract=lambda context: run(),
    # Every headline machine parameter must match the paper's table.
    expected={"mismatches_vs_paper": 0.0},
    render=lambda result: format_table(),
    sampling_tiers=NO_SAMPLING_TIERS,
)
