"""Tests for the Table 2 machine configuration and execution resources."""

from types import SimpleNamespace

import pytest

from repro.core.config import WatchdogConfig
from repro.isa.microops import UopKind
from repro.isa.registers import int_reg, reg_slot
from repro.pipeline.config import FunctionalUnitConfig, MachineConfig
from repro.pipeline.core import OutOfOrderCore
from repro.pipeline.resources import FunctionalUnits, PortPool
from repro.errors import ConfigurationError


class TestMachineConfig:
    def test_table2_defaults(self):
        machine = MachineConfig()
        assert machine.clock_ghz == pytest.approx(3.2)
        assert machine.issue_width == 6
        assert machine.rob_entries == 168
        assert machine.iq_entries == 54
        assert machine.lq_entries == 64
        assert machine.sq_entries == 36
        assert machine.hierarchy.l1d.size_bytes == 32 * 1024
        assert machine.hierarchy.l2.size_bytes == 256 * 1024
        assert machine.hierarchy.l3.size_bytes == 16 * 1024 * 1024
        assert machine.hierarchy.lock_cache.size_bytes == 4 * 1024

    def test_functional_unit_counts(self):
        units = FunctionalUnitConfig()
        assert units.int_alu == 6
        assert units.load_ports == 2
        assert units.store_ports == 1

    def test_latency_table(self):
        machine = MachineConfig()
        assert machine.latency_for(UopKind.ALU) == 1
        assert machine.latency_for(UopKind.DIV) > machine.latency_for(UopKind.MUL)

    def test_describe_mentions_key_structures(self):
        text = MachineConfig().describe()
        assert "168-entry ROB" in text
        assert "Lock Location" in text

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(issue_width=0)


def alu_pool_after(uops, lats, ports):
    """Schedule hand-built ALU µops through the Python scheduler on a core
    with ``ports`` ALUs; return the ALU pool and the cycle its first µop's
    operands are ready (fetch + rename + dispatch latency)."""
    machine = MachineConfig(functional_units=FunctionalUnitConfig(int_alu=ports))
    core = OutOfOrderCore(machine=machine, watchdog=WatchdogConfig.disabled(),
                          timecore=False)
    stream = SimpleNamespace(uops=uops, total_uops=len(uops), injected_uops=0,
                             macro_instructions=len(uops), memory_accesses=0)
    core._schedule_python(stream, lats)
    earliest = (machine.fetch_latency + machine.rename_latency
                + machine.dispatch_latency)
    return core.units.alu, earliest


def alu_uop(dest=-1, src=-1):
    """A one-cost ALU µop tuple in the compiled stream format."""
    return (UopKind.ALU.code, 1, dest, src, -1, -1, -1, -1)


class TestPortPool:
    def test_single_port_serialises(self):
        # Three µops ready together start one cycle apart.
        pool, earliest = alu_pool_after([alu_uop()] * 3, [1] * 3, ports=1)
        assert pool._next_free == [earliest + 3]
        assert (pool.uses, pool.total_wait) == (3, 0 + 1 + 2)

    def test_two_ports_allow_two_per_cycle(self):
        pool, earliest = alu_pool_after([alu_uop()] * 3, [1] * 3, ports=2)
        assert sorted(pool._next_free) == [earliest + 1, earliest + 2]
        assert (pool.uses, pool.total_wait) == (3, 0 + 0 + 1)

    def test_reserve_respects_earliest(self):
        # The consumer's operand is ready 10 cycles after its producer
        # starts: it starts then, on a port that has long been free.
        r1 = reg_slot(int_reg(1))
        pool, earliest = alu_pool_after(
            [alu_uop(dest=r1), alu_uop(src=r1)], [10, 1], ports=1)
        assert pool._next_free == [earliest + 10 + 1]
        assert pool.total_wait == 0

    def test_average_wait(self):
        pool, _ = alu_pool_after([alu_uop()] * 2, [1] * 2, ports=1)
        assert pool.average_wait() == pytest.approx(0.5)

    def test_zero_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            PortPool("p", 0)


class TestFunctionalUnits:
    def test_check_uses_lock_port_when_cache_enabled(self):
        units = FunctionalUnits(FunctionalUnitConfig(), WatchdogConfig.isa_assisted_uaf())
        assert units.pool_for(UopKind.CHECK) is units.lock

    def test_check_uses_load_ports_without_lock_cache(self):
        """The Figure 9 contention effect: checks steal data-cache bandwidth."""
        units = FunctionalUnits(FunctionalUnitConfig(), WatchdogConfig.no_lock_cache())
        assert units.pool_for(UopKind.CHECK) is units.load

    def test_shadow_accesses_use_data_ports(self):
        units = FunctionalUnits(FunctionalUnitConfig(), WatchdogConfig.isa_assisted_uaf())
        assert units.pool_for(UopKind.SHADOW_LOAD) is units.load
        assert units.pool_for(UopKind.SHADOW_STORE) is units.store

    def test_standard_mappings(self):
        units = FunctionalUnits(FunctionalUnitConfig(), WatchdogConfig())
        assert units.pool_for(UopKind.LOAD) is units.load
        assert units.pool_for(UopKind.MUL) is units.muldiv
        assert units.pool_for(UopKind.FP) is units.fp
        assert units.pool_for(UopKind.BRANCH) is units.branch
        assert units.pool_for(UopKind.META_SELECT) is units.alu

    def test_all_pools_exposed(self):
        units = FunctionalUnits(FunctionalUnitConfig(), WatchdogConfig())
        assert set(units.all_pools()) == {"alu", "branch", "load", "store",
                                          "muldiv", "fp", "lock"}
