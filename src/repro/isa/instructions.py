"""The macro instruction set.

This is a small RISC-flavoured macro ISA standing in for the x86-64 macro
instructions of the paper's simulator.  What matters for Watchdog is the
*category* of each instruction:

* register-to-register arithmetic (metadata propagation, §3.4/§6),
* loads and stores of various sizes and register classes (checks plus shadow
  metadata accesses, §3.2/§3.3, and the conservative pointer-identification
  heuristic of §5.1),
* pointer-annotated load/store variants used by ISA-assisted pointer
  identification (§5.2),
* calls and returns (stack-frame identifier management, Figure 3c/3d),
* the new ``setident`` / ``getident`` instructions used by the instrumented
  allocator (Figure 3a/3b) and ``setbounds`` for the bounds extension (§8).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.errors import ProgramError
from repro.isa.registers import ArchReg


class AccessSize(enum.IntEnum):
    """Memory access size in bytes.

    Only 8-byte (word) integer accesses can carry pointers; sub-word and
    floating point accesses are never pointer operations (§5.1).
    """

    BYTE = 1
    HALF = 2
    WORD32 = 4
    WORD64 = 8


class PointerHint(enum.Enum):
    """ISA-assisted pointer annotation attached to a load/store (§5.2).

    ``UNKNOWN`` corresponds to an unannotated binary (conservative mode must
    guess); ``POINTER`` / ``NOT_POINTER`` correspond to the load/store variants
    a compiler would emit.
    """

    UNKNOWN = "unknown"
    POINTER = "pointer"
    NOT_POINTER = "not-pointer"


class Opcode(enum.Enum):
    """Macro opcodes."""

    # Register/immediate arithmetic.
    MOV_RR = "mov_rr"
    MOV_RI = "mov_ri"
    ADD_RR = "add_rr"
    ADD_RI = "add_ri"
    SUB_RR = "sub_rr"
    SUB_RI = "sub_ri"
    MUL_RR = "mul_rr"
    DIV_RR = "div_rr"
    AND_RR = "and_rr"
    OR_RR = "or_rr"
    XOR_RR = "xor_rr"
    SHL_RI = "shl_ri"
    SHR_RI = "shr_ri"
    CMP_RR = "cmp_rr"
    CMP_RI = "cmp_ri"
    # Sub-word arithmetic (never produces a pointer, §6.2 case two).
    ADD32_RR = "add32_rr"
    # Floating point.
    FADD = "fadd"
    FMUL = "fmul"
    FDIV = "fdiv"
    FMOV = "fmov"
    # Address generation (PC-relative / global addressing, §7).
    LEA_GLOBAL = "lea_global"
    LEA = "lea"
    # Memory.
    LOAD = "load"
    STORE = "store"
    FLOAD = "fload"
    FSTORE = "fstore"
    # Control.
    BRANCH = "branch"
    JUMP = "jump"
    CALL = "call"
    RET = "ret"
    NOP = "nop"
    HALT = "halt"
    # Watchdog runtime interface (Figure 3a/3b, §8).
    SETIDENT = "setident"
    GETIDENT = "getident"
    SETBOUNDS = "setbounds"


# Small integer codes attached to the enum members themselves: the compiled
# trace pipeline builds template keys out of millions of dynamic instruction
# instances, and an attribute load is ~2x faster than hashing an enum member
# into a dict (enum.__hash__ is a Python-level call).
for _i, _member in enumerate(Opcode):
    _member.code = _i
for _i, _member in enumerate(PointerHint):
    _member.code = _i
del _i, _member


#: Opcodes whose destination can never be a valid pointer; the renamer marks
#: their metadata mapping invalid instead of propagating (§6.2).
NON_POINTER_PRODUCERS = frozenset(
    {
        Opcode.MUL_RR,
        Opcode.DIV_RR,
        Opcode.SHL_RI,
        Opcode.SHR_RI,
        Opcode.CMP_RR,
        Opcode.CMP_RI,
        Opcode.ADD32_RR,
        Opcode.FADD,
        Opcode.FMUL,
        Opcode.FDIV,
        Opcode.FMOV,
        Opcode.AND_RR,
        Opcode.OR_RR,
        Opcode.XOR_RR,
    }
)

#: Opcodes that copy/propagate metadata from a single register source (§6.2).
SINGLE_SOURCE_PROPAGATORS = frozenset(
    {Opcode.MOV_RR, Opcode.ADD_RI, Opcode.SUB_RI, Opcode.LEA}
)

#: Opcodes with two register sources either of which may be the pointer, so a
#: ``META_SELECT`` µop is required (§6.2 case three).
SELECT_PROPAGATORS = frozenset({Opcode.ADD_RR, Opcode.SUB_RR})

MEMORY_OPCODES = frozenset({Opcode.LOAD, Opcode.STORE, Opcode.FLOAD, Opcode.FSTORE})
LOAD_OPCODES = frozenset({Opcode.LOAD, Opcode.FLOAD})
STORE_OPCODES = frozenset({Opcode.STORE, Opcode.FSTORE})
CONTROL_OPCODES = frozenset({Opcode.BRANCH, Opcode.JUMP, Opcode.CALL, Opcode.RET, Opcode.HALT})


def is_memory_opcode(opcode: Opcode) -> bool:
    """True if the opcode accesses program memory."""
    return opcode in MEMORY_OPCODES


def is_load_opcode(opcode: Opcode) -> bool:
    """True if the opcode reads program memory."""
    return opcode in LOAD_OPCODES


def is_store_opcode(opcode: Opcode) -> bool:
    """True if the opcode writes program memory."""
    return opcode in STORE_OPCODES


@dataclass
class Instruction:
    """A single macro instruction.

    Parameters
    ----------
    opcode:
        The macro opcode.
    dest:
        Destination register, if any.
    srcs:
        At most two source registers, in operand order.  For memory
        operations the first source is the address (base) register; stores
        pass the value register second.
    imm:
        Immediate operand (offsets, constants, branch targets).
    size:
        Access size for memory operations.
    pointer_hint:
        ISA-assisted pointer annotation for memory operations (§5.2).
    label / target:
        Optional symbolic label of this instruction and of a branch/call
        target, resolved by the compiler.
    """

    opcode: Opcode
    dest: Optional[ArchReg] = None
    srcs: Tuple[ArchReg, ...] = ()
    imm: int = 0
    size: AccessSize = AccessSize.WORD64
    pointer_hint: PointerHint = PointerHint.UNKNOWN
    label: Optional[str] = None
    target: Optional[str] = None
    comment: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.srcs, tuple):
            self.srcs = tuple(self.srcs)
        self._validate()

    def _validate(self) -> None:
        op = self.opcode
        if len(self.srcs) > 2:
            raise ProgramError(f"{op.value} has {len(self.srcs)} register "
                               f"sources (at most 2)")
        if op in MEMORY_OPCODES and not self.srcs:
            raise ProgramError(f"{op.value} requires an address register")
        if op in LOAD_OPCODES and self.dest is None:
            raise ProgramError(f"{op.value} requires a destination register")
        if op in STORE_OPCODES and len(self.srcs) < 2:
            raise ProgramError(f"{op.value} requires address and value registers")
        if op is Opcode.SETIDENT and len(self.srcs) < 2:
            raise ProgramError("setident requires pointer and identifier registers")
        if op is Opcode.GETIDENT and (self.dest is None or not self.srcs):
            raise ProgramError("getident requires a destination and a pointer register")

    @property
    def is_memory(self) -> bool:
        return is_memory_opcode(self.opcode)

    @property
    def is_load(self) -> bool:
        return is_load_opcode(self.opcode)

    @property
    def is_store(self) -> bool:
        return is_store_opcode(self.opcode)

    @property
    def is_control(self) -> bool:
        return self.opcode in CONTROL_OPCODES

    @property
    def address_reg(self) -> Optional[ArchReg]:
        """The register holding the address for memory operations."""
        if self.is_memory:
            return self.srcs[0]
        return None

    @property
    def may_carry_pointer(self) -> bool:
        """Whether this memory operation could move a pointer value.

        This encodes the §5.1 conservative heuristic: only 64-bit accesses to
        integer registers may carry pointers.  ISA-assisted identification
        further refines it via :attr:`pointer_hint`.
        """
        if not self.is_memory:
            return False
        if self.opcode in (Opcode.FLOAD, Opcode.FSTORE):
            return False
        return self.size is AccessSize.WORD64

    def __str__(self) -> str:
        parts = [self.opcode.value]
        if self.dest is not None:
            parts.append(str(self.dest))
        parts.extend(str(s) for s in self.srcs)
        if self.imm:
            parts.append(f"#{self.imm}")
        if self.target:
            parts.append(f"@{self.target}")
        return " ".join(parts)
