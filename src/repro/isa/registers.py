"""Architectural registers and the functional register file.

Watchdog conceptually extends every architectural register with a *sidecar*
identifier register (§3.4).  In the functional machine we model this by
storing, next to each register's 64-bit data value, a metadata slot managed by
the Watchdog engine (see :mod:`repro.core.metadata`), which propagates it
between registers in :meth:`repro.core.watchdog.Watchdog.propagate`.  The
timing model charges the decoupled metadata registers of §6 as µops: the
``META_SELECT`` µops of :class:`repro.core.uop_injection.UopInjector`, and
the explicit metadata copies of the no-copy-elimination ablation
(:meth:`repro.sim.compiled.StreamCompiler._full_expand`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ProgramError

WORD_BYTES = 8
WORD_MASK = (1 << 64) - 1


class RegClass(enum.Enum):
    """Integer versus floating-point register class.

    Conservative pointer identification (§5.1) relies on the observation that
    pointers live in integer registers; loads/stores to floating-point
    registers are never treated as pointer operations.
    """

    INT = "int"
    FP = "fp"


@dataclass(frozen=True, order=True)
class ArchReg:
    """An architectural register name such as ``r3`` or ``f7``."""

    regclass: RegClass
    index: int

    def __post_init__(self) -> None:
        # reg_slot maps a register onto the timing model's NUM_REG_SLOTS
        # scoreboard slots; an index beyond its class would land outside.
        limit = NUM_INT_REGS if self.regclass is RegClass.INT else NUM_FP_REGS
        if not 0 <= self.index < limit:
            raise ProgramError(f"{self.regclass.value} register index out "
                               f"of range: {self.index}")

    def __str__(self) -> str:
        prefix = "r" if self.regclass is RegClass.INT else "f"
        return f"{prefix}{self.index}"

    @property
    def is_int(self) -> bool:
        return self.regclass is RegClass.INT

    @property
    def is_fp(self) -> bool:
        return self.regclass is RegClass.FP


NUM_INT_REGS = 16
NUM_FP_REGS = 16

#: Total number of flat register *slots* (integer registers first, then FP).
#: The compiled timing pipeline indexes its readiness scoreboards by slot
#: instead of hashing :class:`ArchReg` objects.
NUM_REG_SLOTS = NUM_INT_REGS + NUM_FP_REGS

INT_REGS = tuple(ArchReg(RegClass.INT, i) for i in range(NUM_INT_REGS))
FP_REGS = tuple(ArchReg(RegClass.FP, i) for i in range(NUM_FP_REGS))


def reg_slot(reg: "ArchReg") -> int:
    """Flat scoreboard slot of a register (int regs first, then FP regs)."""
    if reg.regclass is RegClass.INT:
        return reg.index
    return NUM_INT_REGS + reg.index

#: The stack pointer register (``%rsp`` in the paper's figures).  The hardware
#: associates a per-stack-frame identifier with this register on call/return
#: (Figure 3c/3d).
STACK_POINTER = INT_REGS[15]

#: Register used by convention to return values from calls in the program
#: model (analogous to ``%rax``).
RETURN_VALUE = INT_REGS[0]


def int_reg(index: int) -> ArchReg:
    """Return the integer architectural register with the given index."""
    if not 0 <= index < NUM_INT_REGS:
        raise ProgramError(f"integer register index out of range: {index}")
    return INT_REGS[index]


def fp_reg(index: int) -> ArchReg:
    """Return the floating-point architectural register with the given index."""
    if not 0 <= index < NUM_FP_REGS:
        raise ProgramError(f"fp register index out of range: {index}")
    return FP_REGS[index]


@dataclass
class RegisterFile:
    """Functional (architectural) register file holding 64-bit values.

    Values are stored as Python ints masked to 64 bits.  Floating-point
    registers store their bit patterns the same way; the workloads in this
    reproduction never need real FP arithmetic semantics, only the
    pointer/non-pointer distinction.
    """

    values: Dict[ArchReg, int] = field(default_factory=dict)

    def read(self, reg: ArchReg) -> int:
        """Read a register; unwritten registers read as zero."""
        return self.values.get(reg, 0)

    def write(self, reg: ArchReg, value: int) -> None:
        """Write a 64-bit value (masked) to a register."""
        self.values[reg] = value & WORD_MASK

    def copy(self) -> "RegisterFile":
        """Return an independent snapshot of the register file."""
        return RegisterFile(values=dict(self.values))

    def __getitem__(self, reg: ArchReg) -> int:
        return self.read(reg)

    def __setitem__(self, reg: ArchReg, value: int) -> None:
        self.write(reg, value)


def parse_reg(name: str) -> ArchReg:
    """Parse ``"r4"`` / ``"f2"`` style register names (used by tests/examples)."""
    name = name.strip().lower()
    if len(name) < 2 or name[0] not in ("r", "f") or not name[1:].isdigit():
        raise ProgramError(f"cannot parse register name: {name!r}")
    index = int(name[1:])
    return int_reg(index) if name[0] == "r" else fp_reg(index)
