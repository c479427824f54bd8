"""Program intermediate representation.

A :class:`Program` is a set of named functions; each :class:`Function` is a
straight-line sequence of :class:`Operation` objects.  Operations are either
ordinary macro instructions (executed through the decoder/µop machinery) or
high-level operations the machine interprets directly:

* ``MALLOC`` / ``FREE`` — calls into the instrumented runtime (Figure 3a/3b),
* ``STACK_ALLOC`` — take the address of a local variable in the current stack
  frame (the pattern behind the stack-based dangling pointer of Figure 1),
* ``CALL`` / ``RETURN`` — function call and return (which, under Watchdog,
  trigger the stack-frame identifier µops of Figure 3c/3d),
* ``GLOBAL_ADDR`` — PC-relative address of a global variable, which carries
  the single global identifier (§7).

Control flow inside a function is deliberately omitted: the workload
generators unroll loops when they build programs, which keeps the functional
machine trivially correct while still exercising every Watchdog mechanism.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ProgramError
from repro.isa.instructions import Instruction
from repro.isa.registers import ArchReg


class OpKind(enum.Enum):
    """Kinds of operations the functional machine interprets."""

    MACRO = "macro"
    MALLOC = "malloc"
    FREE = "free"
    STACK_ALLOC = "stack-alloc"
    GLOBAL_ADDR = "global-addr"
    CALL = "call"
    RETURN = "return"


@dataclass
class Operation:
    """One operation in a function body."""

    kind: OpKind
    instruction: Optional[Instruction] = None
    dest: Optional[ArchReg] = None
    src: Optional[ArchReg] = None
    size: int = 0
    offset: int = 0
    callee: Optional[str] = None
    comment: str = ""

    def __post_init__(self) -> None:
        if self.kind is OpKind.MACRO and self.instruction is None:
            raise ProgramError("MACRO operation requires an instruction")
        if self.kind is OpKind.MALLOC and (self.dest is None or self.size <= 0):
            raise ProgramError("MALLOC requires a destination register and size > 0")
        if self.kind is OpKind.FREE and self.src is None:
            raise ProgramError("FREE requires a source register")
        if self.kind is OpKind.STACK_ALLOC and (self.dest is None or self.size <= 0):
            raise ProgramError("STACK_ALLOC requires a destination register and size > 0")
        if self.kind is OpKind.CALL and not self.callee:
            raise ProgramError("CALL requires a callee name")
        if self.kind is OpKind.GLOBAL_ADDR and self.dest is None:
            raise ProgramError("GLOBAL_ADDR requires a destination register")

    def __str__(self) -> str:
        if self.kind is OpKind.MACRO:
            return str(self.instruction)
        parts = [self.kind.value]
        if self.dest is not None:
            parts.append(str(self.dest))
        if self.src is not None:
            parts.append(str(self.src))
        if self.size:
            parts.append(f"size={self.size}")
        if self.callee:
            parts.append(f"-> {self.callee}")
        return " ".join(parts)


@dataclass
class Function:
    """A named straight-line function."""

    name: str
    operations: List[Operation] = field(default_factory=list)
    #: Bytes of stack the function's locals occupy (grown by STACK_ALLOC).
    frame_bytes: int = 0

    def append(self, operation: Operation) -> None:
        self.operations.append(operation)

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)


@dataclass
class Program:
    """A whole program: functions plus the entry-point name."""

    functions: Dict[str, Function] = field(default_factory=dict)
    entry: str = "main"
    #: Global pointer slots (offsets in the global segment) initialized to
    #: point at other globals; their shadow metadata is pre-set to the global
    #: identifier (§7).
    initialized_global_pointers: Tuple[int, ...] = ()

    def add_function(self, function: Function) -> None:
        if function.name in self.functions:
            raise ProgramError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise ProgramError(f"unknown function {name!r}") from None

    def validate(self) -> None:
        """Check call targets exist and the entry point is defined."""
        if self.entry not in self.functions:
            raise ProgramError(f"entry function {self.entry!r} is not defined")
        for function in self.functions.values():
            for operation in function:
                if operation.kind is OpKind.CALL and operation.callee not in self.functions:
                    raise ProgramError(
                        f"{function.name} calls unknown function {operation.callee!r}")
