"""Structural execution resources.

The timing model charges every µop against a finite set of execution ports:
integer ALUs, the branch unit, multiply/divide units, FP units, the two data
cache load ports, the single store port and — when the lock location cache is
present — a dedicated lock port (§4.2: the point of the lock location cache is
"to provide more bandwidth for accessing lock locations").  When the lock
cache is disabled, check µops compete for the data load ports instead, which
is exactly the contention the Figure 9 experiment measures.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import WatchdogConfig
from repro.errors import ConfigurationError
from repro.isa.microops import UopKind
from repro.pipeline.config import FunctionalUnitConfig


class PortPool:
    """A group of identical ports, each busy until some cycle.

    The scheduler (``OutOfOrderCore._schedule_python`` and the kernel's
    ``sched_run``) issues each µop on the soonest-free port at or after its
    operands are ready, marks that port busy for the µop's cost, and folds
    the use and the cycles waited for a port into this pool.
    """

    def __init__(self, name: str, count: int):
        if count <= 0:
            raise ConfigurationError(f"port pool {name} needs at least one port")
        self.name = name
        self._next_free: List[int] = [0] * count
        self.uses = 0
        self.total_wait = 0

    def average_wait(self) -> float:
        return self.total_wait / self.uses if self.uses else 0.0


class FunctionalUnits:
    """Maps µop kinds to port pools according to the Watchdog configuration."""

    def __init__(self, config: FunctionalUnitConfig, watchdog: WatchdogConfig):
        self.config = config
        self.watchdog = watchdog
        self.alu = PortPool("alu", config.int_alu)
        self.branch = PortPool("branch", config.branch)
        self.load = PortPool("load", config.load_ports)
        self.store = PortPool("store", config.store_ports)
        self.muldiv = PortPool("muldiv", config.mul_div)
        self.fp = PortPool("fp", config.fp_units)
        self.lock = PortPool("lock", config.lock_ports)

    def pool_for(self, kind: UopKind) -> PortPool:
        """The port pool a µop of ``kind`` issues to."""
        if kind is UopKind.LOAD or kind is UopKind.SHADOW_LOAD or kind is UopKind.GETIDENT:
            return self.load
        if kind is UopKind.STORE or kind is UopKind.SHADOW_STORE or kind is UopKind.SETIDENT:
            return self.store
        if kind is UopKind.CHECK:
            # Check µops read a lock location: dedicated port if the lock
            # location cache exists, otherwise they contend for load ports.
            if self.watchdog.lock_cache_enabled:
                return self.lock
            return self.load
        if kind in (UopKind.LOCK_PUSH, UopKind.LOCK_POP):
            return self.lock if self.watchdog.lock_cache_enabled else self.store
        if kind is UopKind.BRANCH:
            return self.branch
        if kind is UopKind.MUL or kind is UopKind.DIV:
            return self.muldiv
        if kind is UopKind.FP:
            return self.fp
        return self.alu

    def all_pools(self) -> Dict[str, PortPool]:
        return {
            "alu": self.alu,
            "branch": self.branch,
            "load": self.load,
            "store": self.store,
            "muldiv": self.muldiv,
            "fp": self.fp,
            "lock": self.lock,
        }
