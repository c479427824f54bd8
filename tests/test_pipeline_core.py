"""Tests for the out-of-order timing model."""

from repro.core.config import WatchdogConfig
from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import int_reg
from repro.pipeline.config import MachineConfig
from repro.pipeline.core import OutOfOrderCore
from repro.sim.simulator import Simulator
from repro.sim.trace import DynamicOp

BASELINE = WatchdogConfig.disabled()


def timing_of(trace, config=BASELINE):
    """Time a dynamic trace on a cold hierarchy."""
    return Simulator().run_trace(trace, config).timing


def alu_chain(length, dependent=True):
    """A chain of ``ADD_RI`` ops, serially dependent or fully independent."""
    ops = []
    for i in range(length):
        if dependent:
            dest = int_reg(1)
            src = int_reg(1)
        else:
            dest = int_reg(1 + (i % 8))
            src = int_reg(9)
        ops.append(DynamicOp(Instruction(Opcode.ADD_RI, dest=dest,
                                         srcs=(src,), imm=1)))
    return ops


def load_at(address):
    return DynamicOp(Instruction(Opcode.LOAD, dest=int_reg(1),
                                 srcs=(int_reg(2),)),
                     address=address, lock_address=0x6000_0000)


class TestDependenceAndWidth:
    def test_dependent_chain_is_serial(self):
        result = timing_of(alu_chain(200, dependent=True))
        assert result.cycles >= 200

    def test_independent_uops_exploit_width(self):
        serial = timing_of(alu_chain(200, dependent=True))
        parallel = timing_of(alu_chain(200, dependent=False))
        assert parallel.cycles < serial.cycles

    def test_ipc_never_exceeds_machine_width(self):
        result = timing_of(alu_chain(500, dependent=False))
        assert result.ipc <= MachineConfig().issue_width + 1e-9

    def test_empty_trace(self):
        result = timing_of([])
        assert result.cycles >= 1
        assert result.total_uops == 0


class TestMemoryBehaviour:
    def test_cache_miss_costs_more_than_hit(self):
        cold = timing_of([load_at(i * 4096) for i in range(64)])
        warm = timing_of([load_at(0) for _ in range(64)])
        assert cold.cycles > warm.cycles

    def test_memory_access_count(self):
        assert timing_of([load_at(0x1000)]).memory_accesses == 1

    def test_mispredicted_branch_adds_refill_penalty(self):
        def branch(mispredicted):
            inst = Instruction(Opcode.BRANCH, srcs=(int_reg(1),))
            return [DynamicOp(inst, mispredicted=mispredicted)] \
                + alu_chain(50, False)
        good = timing_of(branch(False))
        bad = timing_of(branch(True))
        assert bad.cycles > good.cycles


class TestWatchdogEffects:
    def _trace(self, instructions=400):
        return [load_at(0x2000_0000 + 8 * i) for i in range(instructions)]

    def test_injected_uops_counted(self):
        result = timing_of(self._trace(), WatchdogConfig.isa_assisted_uaf())
        assert result.injected_uops > 0
        assert result.uop_overhead > 0

    def test_watchdog_costs_cycles_over_baseline(self):
        baseline = timing_of(self._trace(), BASELINE)
        watchdog = timing_of(self._trace(), WatchdogConfig.conservative_uaf())
        assert watchdog.cycles > baseline.cycles
        assert watchdog.total_uops > baseline.total_uops

    def test_lock_cache_config_propagates_to_hierarchy(self):
        core = OutOfOrderCore(watchdog=WatchdogConfig.no_lock_cache())
        assert not core.hierarchy.config.lock_cache_enabled
        core = OutOfOrderCore(watchdog=WatchdogConfig.isa_assisted_uaf())
        assert core.hierarchy.config.lock_cache_enabled

    def test_ideal_shadow_config_propagates_to_hierarchy(self):
        core = OutOfOrderCore(watchdog=WatchdogConfig.idealized_shadow())
        assert core.hierarchy.config.ideal_shadow

    def test_port_waits_reported_for_all_pools(self):
        result = timing_of(self._trace(50), WatchdogConfig.isa_assisted_uaf())
        assert set(result.port_waits) == {"alu", "branch", "load", "store",
                                          "muldiv", "fp", "lock"}
