"""Machine configuration (Table 2).

The simulated processor parameters were "selected to be similar to Intel's
Core i7 'Sandy Bridge' processor" (§9.1).  The timing model consumes the
subset of Table 2 that constrains throughput: front-end and issue widths,
window sizes (ROB/IQ/LQ/SQ), functional-unit and memory-port counts, and
execution latencies.  The memory hierarchy parameters live in
:class:`repro.memory.hierarchy.HierarchyConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigurationError
from repro.isa.microops import UopKind
from repro.memory.hierarchy import HierarchyConfig


@dataclass(frozen=True)
class FunctionalUnitConfig:
    """Counts of each execution resource (Table 2, Window/Exec rows)."""

    int_alu: int = 6
    branch: int = 1
    load_ports: int = 2
    store_ports: int = 1
    mul_div: int = 2
    fp_units: int = 2
    #: The lock location cache adds dedicated access bandwidth (§4.2); check
    #: µops use it instead of the data-cache load ports when it is enabled.
    lock_ports: int = 2


@dataclass(frozen=True)
class MachineConfig:
    """Table 2 core parameters plus execution latencies."""

    clock_ghz: float = 3.2
    fetch_bytes_per_cycle: int = 16
    fetch_latency: int = 3
    rename_width: int = 6
    rename_latency: int = 2
    dispatch_width: int = 6
    dispatch_latency: int = 1
    issue_width: int = 6
    commit_width: int = 6
    rob_entries: int = 168
    iq_entries: int = 54
    lq_entries: int = 64
    sq_entries: int = 36
    int_physical_registers: int = 160
    fp_physical_registers: int = 144
    branch_misprediction_penalty: int = 14
    functional_units: FunctionalUnitConfig = field(default_factory=FunctionalUnitConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)

    def __post_init__(self) -> None:
        for name in ("rob_entries", "iq_entries", "lq_entries", "sq_entries",
                     "issue_width", "dispatch_width", "commit_width"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive, "
                                         f"got {getattr(self, name)}")

    #: Fixed execution latencies per µop kind (cache-access kinds get their
    #: latency from the memory hierarchy instead).
    EXEC_LATENCY: Dict[UopKind, int] = field(default_factory=lambda: {
        UopKind.ALU: 1,
        UopKind.MUL: 3,
        UopKind.DIV: 20,
        UopKind.FP: 3,
        UopKind.BRANCH: 1,
        UopKind.BOUNDS_CHECK: 1,
        UopKind.META_SELECT: 1,
        UopKind.SETIDENT: 1,
        UopKind.GETIDENT: 1,
        UopKind.SETBOUNDS: 1,
        UopKind.NOP: 1,
        UopKind.STORE: 1,
        UopKind.SHADOW_STORE: 1,
        UopKind.LOCK_PUSH: 2,
        UopKind.LOCK_POP: 2,
    }, repr=False, compare=False)

    def latency_for(self, kind: UopKind) -> int:
        """Execution latency for non-cache-timed µop kinds."""
        return self.EXEC_LATENCY.get(kind, 1)

    def describe(self) -> str:
        """Human-readable rendering of the configuration (Table 2 style)."""
        fu = self.functional_units
        lines = [
            f"Clock            {self.clock_ghz:.1f} GHz",
            f"Fetch            {self.fetch_bytes_per_cycle} bytes/cycle, "
            f"{self.fetch_latency} cycle latency",
            f"Rename           max {self.rename_width} uops/cycle, "
            f"{self.rename_latency} cycle latency",
            f"Dispatch         max {self.dispatch_width} uops/cycle",
            f"Issue            {self.issue_width}-wide",
            f"ROB/IQ           {self.rob_entries}-entry ROB, {self.iq_entries}-entry IQ",
            f"LQ/SQ            {self.lq_entries}-entry LQ, {self.sq_entries}-entry SQ",
            f"Registers        {self.int_physical_registers} int + "
            f"{self.fp_physical_registers} fp",
            f"Int FUs          {fu.int_alu} ALU, {fu.branch} branch, "
            f"{fu.load_ports} ld, {fu.store_ports} st, {fu.mul_div} mul/div",
            f"FP FUs           {fu.fp_units}",
            f"L1 D$            {self.hierarchy.l1d.size_bytes // 1024}KB, "
            f"{self.hierarchy.l1d.associativity}-way, {self.hierarchy.l1d.hit_latency} cycles",
            f"Private L2$      {self.hierarchy.l2.size_bytes // 1024}KB, "
            f"{self.hierarchy.l2.associativity}-way, {self.hierarchy.l2.hit_latency} cycles",
            f"Shared L3$       {self.hierarchy.l3.size_bytes // (1024 * 1024)}MB, "
            f"{self.hierarchy.l3.associativity}-way, {self.hierarchy.l3.hit_latency} cycles",
            f"Lock Location $  {self.hierarchy.lock_cache.size_bytes // 1024}KB, "
            f"{self.hierarchy.lock_cache.associativity}-way",
            f"Memory           {self.hierarchy.dram_latency} cycle latency",
        ]
        return "\n".join(lines)
