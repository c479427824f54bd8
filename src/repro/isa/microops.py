"""The µop vocabulary.

Macro instructions are cracked into RISC-style µops (§9.1).  Watchdog's own
work is expressed as *injected* µops (§3, Figure 2):

* ``CHECK`` — identifier validity check before a memory access (§3.2, Fig 4b),
* ``SHADOW_LOAD`` / ``SHADOW_STORE`` — move pointer metadata between the
  sidecar register and the disjoint shadow space (§3.3),
* ``META_SELECT`` — select metadata from whichever of two sources holds a
  valid pointer (§6.2),
* ``BOUNDS_CHECK`` — the separate bounds-check µop of the two-µop bounds
  configuration (§8),
* ``LOCK_PUSH`` / ``LOCK_POP`` — the stack-frame identifier management µops
  injected on call/return (Figure 3c/3d; each expands to four simple µops in
  the paper, which we charge for in the timing model via ``uop_cost``).

The µop is the unit shared between the functional machine (which executes its
semantics) and the timing model (which charges its latency and port usage).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.isa.instructions import AccessSize, Instruction
from repro.isa.registers import ArchReg


class UopKind(enum.Enum):
    """Execution category of a µop (determines functional unit and latency)."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    FP = "fp"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    # --- Watchdog-injected kinds ---------------------------------------
    CHECK = "check"
    SHADOW_LOAD = "shadow_load"
    SHADOW_STORE = "shadow_store"
    META_SELECT = "meta_select"
    BOUNDS_CHECK = "bounds_check"
    LOCK_PUSH = "lock_push"
    LOCK_POP = "lock_pop"
    SETIDENT = "setident"
    GETIDENT = "getident"
    SETBOUNDS = "setbounds"
    NOP = "nop"


# Stable small-int codes for each µop kind, attached to the members (an
# attribute load beats hashing the enum).  The compiled timing pipeline packs
# these into its per-µop flag words.
for _i, _member in enumerate(UopKind):
    _member.code = _i
KIND_COUNT = len(UopKind)
del _i, _member


#: µop kinds injected by Watchdog (as opposed to cracked from the program's
#: own macro instructions).  Used for the Figure 8 µop-overhead breakdown.
WATCHDOG_KINDS = frozenset(
    {
        UopKind.CHECK,
        UopKind.SHADOW_LOAD,
        UopKind.SHADOW_STORE,
        UopKind.META_SELECT,
        UopKind.BOUNDS_CHECK,
        UopKind.LOCK_PUSH,
        UopKind.LOCK_POP,
    }
)


_uop_ids = itertools.count()


@dataclass
class MicroOp:
    """A single µop in the dynamic stream.

    Registers are architectural at this point; the rename stage assigns
    physical registers (and metadata physical registers) later.

    ``meta_srcs`` / ``meta_dest`` name the architectural registers whose
    *metadata* the µop reads/writes (the sidecar registers of §3.4) — e.g. a
    ``CHECK`` µop reads the metadata of the address register but none of the
    data registers.
    """

    kind: UopKind
    dest: Optional[ArchReg] = None
    srcs: Tuple[ArchReg, ...] = ()
    meta_dest: Optional[ArchReg] = None
    meta_srcs: Tuple[ArchReg, ...] = ()
    imm: int = 0
    size: AccessSize = AccessSize.WORD64
    #: Relative cost in simple µops; LOCK_PUSH/LOCK_POP expand to 4 (Fig 3).
    uop_cost: int = 1
    #: True if this µop was injected by Watchdog rather than cracked from the
    #: program instruction.
    injected: bool = False
    #: The macro instruction this µop belongs to (for attribution/statistics).
    macro: Optional[Instruction] = None
    #: Sequence number, assigned at creation, unique within a process.
    seq: int = field(default_factory=lambda: next(_uop_ids))
    #: Monotonic id of the *dynamic macro instance* this µop was injected
    #: for, stamped by :class:`~repro.core.uop_injection.UopInjector` — all
    #: µops of one expansion share one stamp.  ``-1`` means "not stamped"
    #: (hand-built µops).  Unlike ``id(macro)``, stamps are never reused, so
    #: two distinct macro instances can never be silently merged.
    macro_seq: int = -1

    def __post_init__(self) -> None:
        if not isinstance(self.srcs, tuple):
            self.srcs = tuple(self.srcs)
        if not isinstance(self.meta_srcs, tuple):
            self.meta_srcs = tuple(self.meta_srcs)

    @property
    def is_injected(self) -> bool:
        return self.injected or self.kind in WATCHDOG_KINDS

    def __str__(self) -> str:
        parts = [self.kind.value]
        if self.dest is not None:
            parts.append(str(self.dest))
        parts.extend(str(s) for s in self.srcs)
        if self.imm:
            parts.append(f"#{self.imm}")
        if self.is_injected:
            parts.append("[wd]")
        return " ".join(parts)


def alu_uop(dest: Optional[ArchReg], srcs: Tuple[ArchReg, ...], imm: int = 0,
            macro: Optional[Instruction] = None) -> MicroOp:
    """Convenience constructor for a plain ALU µop."""
    return MicroOp(kind=UopKind.ALU, dest=dest, srcs=srcs, imm=imm, macro=macro)
