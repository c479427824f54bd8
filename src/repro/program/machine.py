"""The functional machine.

Executes a :class:`~repro.program.ir.Program` under a given Watchdog
configuration.  Every macro instruction is expanded through the Watchdog µop
injector, and the machine then interprets each µop:

* ``CHECK`` — identifier (and, when enabled, bounds) validation against the
  metadata of the address register (§3.2, §8),
* ``LOAD``/``STORE`` — the actual data access on the simulated memory,
* ``SHADOW_LOAD``/``SHADOW_STORE`` — metadata movement to/from the disjoint
  shadow space (§3.3),
* ``LOCK_PUSH``/``LOCK_POP`` — stack-frame identifier management (Fig 3c/3d),
* ALU µops — data computation plus functional metadata propagation (§6.2).

High-level operations (``MALLOC``, ``FREE``, ``STACK_ALLOC``, ``GLOBAL_ADDR``,
``CALL``, ``RETURN``) are interpreted directly, calling into the instrumented
runtime and the stack-frame manager.

The machine optionally records the dynamic trace (macro instructions with
effective addresses and lock addresses), which can be fed to the timing model
so that detection experiments and timing experiments share one execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import WatchdogConfig
from repro.core.metadata import PointerMetadata
from repro.core.watchdog import Watchdog
from repro.errors import MemorySafetyViolation, ProgramError, SimulationError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.microops import MicroOp, UopKind
from repro.isa.registers import ArchReg, RegisterFile, STACK_POINTER, WORD_MASK
from repro.program.ir import Function, OpKind, Operation, Program
from repro.sim.trace import DynamicOp

#: Maximum dynamic operations executed before the machine assumes runaway.
DEFAULT_OPERATION_LIMIT = 2_000_000


@dataclass
class ExecutionResult:
    """Outcome of running a program on the functional machine."""

    detected: bool
    violation: Optional[MemorySafetyViolation]
    operations_executed: int
    instructions_executed: int
    uops_executed: int
    registers: RegisterFile
    trace: List[DynamicOp] = field(default_factory=list)

    @property
    def violation_kind(self) -> Optional[str]:
        return self.violation.kind if self.violation is not None else None


class Machine:
    """Functional executor for programs under a Watchdog configuration."""

    def __init__(self, config: Optional[WatchdogConfig] = None,
                 watchdog: Optional[Watchdog] = None,
                 record_trace: bool = False):
        self.watchdog = watchdog or Watchdog(config or WatchdogConfig())
        self.config = self.watchdog.config
        self.memory = self.watchdog.memory
        self.registers = RegisterFile()
        self.record_trace = record_trace
        self.trace: List[DynamicOp] = []
        self.operations_executed = 0
        self.instructions_executed = 0
        self.uops_executed = 0
        # Stack management: the stack grows downward from the top of the
        # stack segment; each frame's locals are bump-allocated below rsp.
        self._stack_top = self.memory.layout.stack.limit - 16
        self.registers.write(STACK_POINTER, self._stack_top)
        self._frame_cursor = [self._stack_top]

    # -- trace helpers --------------------------------------------------------------
    def _record(self, inst: Instruction, address: Optional[int] = None) -> None:
        if not self.record_trace:
            return
        lock_address = None
        if address is not None and inst.is_memory:
            metadata = self.watchdog.get_register_metadata(inst.address_reg)
            if metadata is not None:
                lock_address = metadata.identifier.lock
        self.trace.append(DynamicOp(instruction=inst, address=address,
                                    lock_address=lock_address))

    # -- effective addresses -----------------------------------------------------------
    def _effective_address(self, inst: Instruction) -> int:
        base = self.registers.read(inst.srcs[0])
        return (base + inst.imm) & WORD_MASK

    # -- ALU semantics --------------------------------------------------------------------
    def _alu_value(self, inst: Instruction) -> int:
        op = inst.opcode
        read = self.registers.read
        if op is Opcode.MOV_RR or op is Opcode.FMOV:
            return read(inst.srcs[0])
        if op is Opcode.MOV_RI:
            return inst.imm & WORD_MASK
        if op is Opcode.ADD_RR or op is Opcode.FADD:
            return (read(inst.srcs[0]) + read(inst.srcs[1])) & WORD_MASK
        if op is Opcode.ADD_RI or op is Opcode.LEA:
            return (read(inst.srcs[0]) + inst.imm) & WORD_MASK
        if op is Opcode.SUB_RR:
            return (read(inst.srcs[0]) - read(inst.srcs[1])) & WORD_MASK
        if op is Opcode.SUB_RI:
            return (read(inst.srcs[0]) - inst.imm) & WORD_MASK
        if op is Opcode.MUL_RR or op is Opcode.FMUL:
            return (read(inst.srcs[0]) * read(inst.srcs[1])) & WORD_MASK
        if op is Opcode.DIV_RR or op is Opcode.FDIV:
            divisor = read(inst.srcs[1])
            return (read(inst.srcs[0]) // divisor) & WORD_MASK if divisor else 0
        if op is Opcode.AND_RR:
            return read(inst.srcs[0]) & read(inst.srcs[1])
        if op is Opcode.OR_RR:
            return read(inst.srcs[0]) | read(inst.srcs[1])
        if op is Opcode.XOR_RR:
            return read(inst.srcs[0]) ^ read(inst.srcs[1])
        if op is Opcode.SHL_RI:
            return (read(inst.srcs[0]) << (inst.imm & 63)) & WORD_MASK
        if op is Opcode.SHR_RI:
            return read(inst.srcs[0]) >> (inst.imm & 63)
        if op is Opcode.ADD32_RR:
            return (read(inst.srcs[0]) + read(inst.srcs[1])) & 0xFFFF_FFFF
        if op in (Opcode.CMP_RR, Opcode.CMP_RI):
            return read(inst.srcs[0])
        raise ProgramError(f"no ALU semantics for {op}")

    # -- macro instruction execution ---------------------------------------------------------
    def _execute_macro(self, inst: Instruction, pc: int) -> None:
        self.instructions_executed += 1
        uops = self.watchdog.expand(inst)
        self.uops_executed += sum(uop.uop_cost for uop in uops)

        address: Optional[int] = None
        if inst.is_memory:
            address = self._effective_address(inst)
        self._record(inst, address)

        has_shadow_load = any(u.kind is UopKind.SHADOW_LOAD for u in uops)

        for uop in uops:
            kind = uop.kind
            if kind is UopKind.CHECK:
                assert address is not None
                self.watchdog.check_access(inst.address_reg, address,
                                           int(inst.size), pc=pc)
            elif kind is UopKind.BOUNDS_CHECK:
                # Functionally folded into check_access (which performs the
                # bounds comparison whenever bounds are enabled); the separate
                # µop only matters for timing.
                continue
            elif kind is UopKind.LOAD:
                assert address is not None and inst.dest is not None
                value = self.memory.load(address, int(inst.size))
                self.registers.write(inst.dest, value)
                self.watchdog.note_data_access(address, int(inst.size))
                if not has_shadow_load:
                    self.watchdog.note_non_pointer_load(inst.dest)
            elif kind is UopKind.STORE:
                assert address is not None
                value = self.registers.read(inst.srcs[1])
                self.memory.store(address, value, int(inst.size))
                self.watchdog.note_data_access(address, int(inst.size))
            elif kind is UopKind.SHADOW_LOAD:
                assert address is not None and inst.dest is not None
                self.watchdog.shadow_load(inst.dest, address)
            elif kind is UopKind.SHADOW_STORE:
                assert address is not None
                self.watchdog.shadow_store(address, inst.srcs[1])
            elif kind in (UopKind.ALU, UopKind.MUL, UopKind.DIV, UopKind.FP):
                if inst.dest is not None:
                    self.registers.write(inst.dest, self._alu_value(inst))
                self.watchdog.propagate(inst)
            elif kind in (UopKind.META_SELECT, UopKind.NOP, UopKind.BRANCH,
                          UopKind.LOCK_PUSH, UopKind.LOCK_POP,
                          UopKind.SETIDENT, UopKind.GETIDENT, UopKind.SETBOUNDS):
                # META_SELECT is folded into propagate(); frame µops are
                # handled at the CALL/RETURN operation level; the runtime
                # interface µops are handled by the MALLOC/FREE operations.
                continue
            else:
                raise SimulationError(f"machine cannot execute µop kind {kind}")

    # -- high-level operations ------------------------------------------------------------------
    def _execute_operation(self, operation: Operation, function: Function, pc: int,
                           call_stack: List[Tuple[Function, int]]) -> Optional[int]:
        """Execute one operation; return a new pc when control transfers."""
        kind = operation.kind

        if kind is OpKind.MACRO:
            assert operation.instruction is not None
            self._execute_macro(operation.instruction, pc)
            return None

        if kind is OpKind.MALLOC:
            assert operation.dest is not None
            pointer = self.watchdog.malloc(operation.size, operation.dest)
            self.registers.write(operation.dest, pointer)
            self.instructions_executed += 1
            return None

        if kind is OpKind.FREE:
            assert operation.src is not None
            pointer = self.registers.read(operation.src)
            self.watchdog.free(operation.src, pointer)
            self.instructions_executed += 1
            return None

        if kind is OpKind.STACK_ALLOC:
            assert operation.dest is not None
            self._frame_cursor[-1] -= max(operation.size, 8)
            address = self._frame_cursor[-1] & ~7
            self._frame_cursor[-1] = address
            self.registers.write(operation.dest, address)
            if self.config.enabled:
                metadata = self.watchdog.frames.current_frame_metadata(
                    frame_base=address, frame_size=operation.size)
                self.watchdog.set_register_metadata(operation.dest, metadata)
            self.instructions_executed += 1
            return None

        if kind is OpKind.GLOBAL_ADDR:
            assert operation.dest is not None
            address = self.memory.layout.globals_seg.base + operation.offset
            self.registers.write(operation.dest, address)
            if self.config.enabled:
                self.watchdog.set_register_metadata(operation.dest,
                                                    self.watchdog.global_metadata())
            self.instructions_executed += 1
            return None

        if kind is OpKind.CALL:
            callee = operation.callee
            assert callee is not None
            self.watchdog.on_call()
            new_sp = self.registers.read(STACK_POINTER) - 64
            self.registers.write(STACK_POINTER, new_sp)
            self._frame_cursor.append(new_sp)
            call_stack.append((function, pc + 1))
            self.instructions_executed += 1
            return -1  # signal: enter callee at pc 0

        if kind is OpKind.RETURN:
            self.watchdog.on_return()
            self._frame_cursor.pop()
            if len(self._frame_cursor) == 0:
                self._frame_cursor.append(self._stack_top)
            self.registers.write(STACK_POINTER,
                                 self._frame_cursor[-1])
            self.instructions_executed += 1
            return -2  # signal: return to caller

        raise SimulationError(f"machine cannot execute operation kind {kind}")

    # -- the run loop ------------------------------------------------------------------------------
    def run(self, program: Program) -> ExecutionResult:
        """Execute ``program`` from its entry point; the first memory-safety
        violation halts it and is reported on the result."""
        program.validate()
        for offset in program.initialized_global_pointers:
            self.watchdog.initialize_global_pointer(
                self.memory.layout.globals_seg.base + offset)

        function = program.function(program.entry)
        pc = 0
        call_stack: List[Tuple[Function, int]] = []
        violation: Optional[MemorySafetyViolation] = None

        try:
            while True:
                if self.operations_executed >= DEFAULT_OPERATION_LIMIT:
                    raise SimulationError("operation limit exceeded (runaway program?)")
                if pc >= len(function.operations):
                    if not call_stack:
                        break
                    function, pc = call_stack.pop()
                    continue
                operation = function.operations[pc]
                self.operations_executed += 1
                transfer = self._execute_operation(operation, function, pc, call_stack)
                if transfer == -1:
                    function = program.function(operation.callee)  # type: ignore[arg-type]
                    pc = 0
                    continue
                if transfer == -2:
                    if not call_stack:
                        break
                    function, pc = call_stack.pop()
                    continue
                pc += 1
        except MemorySafetyViolation as exc:
            violation = exc

        return ExecutionResult(
            detected=violation is not None,
            violation=violation,
            operations_executed=self.operations_executed,
            instructions_executed=self.instructions_executed,
            uops_executed=self.uops_executed,
            registers=self.registers,
            trace=self.trace,
        )
