"""µop injection (§3, Figures 2 and 3).

Watchdog augments instruction execution by injecting µops around the baseline
µops produced by the decoder:

* before every load and store: a ``CHECK`` µop that validates the address
  register's identifier (§3.2); with the two-µop bounds configuration an
  additional ``BOUNDS_CHECK`` µop (§8),
* for loads/stores classified as pointer operations: a ``SHADOW_LOAD`` /
  ``SHADOW_STORE`` µop that moves metadata between the shadow space and the
  destination/source register's sidecar (§3.3, Figure 2a/2b),
* for two-register-source arithmetic (either input may be the pointer): a
  ``META_SELECT`` µop (§6.2); single-source propagation and invalidation are
  handled at rename time and cost no µop,
* on calls and returns: the four-µop stack-frame identifier sequences of
  Figure 3c/3d, modelled as one ``LOCK_PUSH`` / ``LOCK_POP`` µop with
  ``uop_cost = 4``.

The injector also accumulates the per-category µop counts that drive the
Figure 8 breakdown (checks / pointer loads / pointer stores / other).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import BoundsCheckMode, WatchdogConfig
from repro.core.pointer_id import make_identifier
from repro.isa.decoder import Decoder
from repro.isa.instructions import (
    Instruction,
    Opcode,
    SELECT_PROPAGATORS,
)
from repro.isa.microops import MicroOp, UopKind
from repro.isa.registers import STACK_POINTER


@dataclass
class InjectionStats:
    """Dynamic µop counts, split the way Figure 8 reports them."""

    baseline_uops: int = 0
    check_uops: int = 0
    bounds_check_uops: int = 0
    pointer_load_uops: int = 0
    pointer_store_uops: int = 0
    select_uops: int = 0
    frame_uops: int = 0
    other_uops: int = 0

    @property
    def injected_uops(self) -> int:
        return (self.check_uops + self.bounds_check_uops + self.pointer_load_uops
                + self.pointer_store_uops + self.select_uops + self.frame_uops
                + self.other_uops)


class UopInjector:
    """Wraps the decoder and injects Watchdog µops per the configuration."""

    def __init__(self, config: WatchdogConfig):
        self.config = config
        self.decoder = Decoder()
        self.pointer_identifier = make_identifier(config.conservative)
        self.stats = InjectionStats()

    # -- helpers -----------------------------------------------------------------
    def _check_uops(self, inst: Instruction) -> List[MicroOp]:
        """The check µop(s) inserted before a memory access."""
        address_reg = inst.address_reg
        assert address_reg is not None
        uops = [MicroOp(kind=UopKind.CHECK, srcs=(address_reg,),
                        meta_srcs=(address_reg,), imm=inst.imm, size=inst.size)]
        self.stats.check_uops += 1
        if self.config.bounds_mode is BoundsCheckMode.SEPARATE_UOP:
            uops.append(MicroOp(kind=UopKind.BOUNDS_CHECK, srcs=(address_reg,),
                                meta_srcs=(address_reg,), imm=inst.imm,
                                size=inst.size))
            self.stats.bounds_check_uops += 1
        return uops

    def _shadow_uop_cost(self) -> int:
        """Shadow transfers widen with the bounds extension (256-bit metadata
        needs twice the shadow traffic, §8)."""
        return 2 if self.config.bounds_enabled else 1

    # -- main entry point -----------------------------------------------------------
    def expand(self, inst: Instruction) -> List[MicroOp]:
        """Decode ``inst`` and inject the Watchdog µops around it."""
        baseline = self.decoder.decode(inst)
        self.stats.baseline_uops += sum(uop.uop_cost for uop in baseline)

        if not self.config.enabled:
            return baseline

        uops: List[MicroOp] = []
        op = inst.opcode

        if inst.is_load:
            is_pointer = self.pointer_identifier.is_pointer_operation(inst)
            uops.extend(self._check_uops(inst))
            uops.extend(baseline)
            if is_pointer:
                shadow = MicroOp(kind=UopKind.SHADOW_LOAD, dest=None,
                                 srcs=(inst.srcs[0],), meta_dest=inst.dest,
                                 meta_srcs=(inst.srcs[0],), imm=inst.imm,
                                 uop_cost=self._shadow_uop_cost())
                uops.append(shadow)
                self.stats.pointer_load_uops += shadow.uop_cost
            return uops

        if inst.is_store:
            is_pointer = self.pointer_identifier.is_pointer_operation(inst)
            uops.extend(self._check_uops(inst))
            if is_pointer:
                shadow = MicroOp(kind=UopKind.SHADOW_STORE, dest=None,
                                 srcs=(inst.srcs[0],),
                                 meta_srcs=(inst.srcs[0], inst.srcs[1]),
                                 imm=inst.imm, uop_cost=self._shadow_uop_cost())
                uops.append(shadow)
                self.stats.pointer_store_uops += shadow.uop_cost
            uops.extend(baseline)
            return uops

        if op is Opcode.CALL:
            uops.extend(baseline)
            frame = MicroOp(kind=UopKind.LOCK_PUSH, dest=STACK_POINTER,
                            meta_dest=STACK_POINTER, uop_cost=4)
            uops.append(frame)
            self.stats.frame_uops += frame.uop_cost
            return uops

        if op is Opcode.RET:
            frame = MicroOp(kind=UopKind.LOCK_POP, dest=STACK_POINTER,
                            meta_dest=STACK_POINTER, uop_cost=4)
            uops.append(frame)
            self.stats.frame_uops += frame.uop_cost
            uops.extend(baseline)
            return uops

        if op in SELECT_PROPAGATORS:
            uops.extend(baseline)
            select = MicroOp(kind=UopKind.META_SELECT, dest=None,
                             meta_dest=inst.dest, meta_srcs=inst.srcs)
            uops.append(select)
            self.stats.select_uops += 1
            return uops

        if op in (Opcode.SETIDENT, Opcode.GETIDENT, Opcode.SETBOUNDS):
            # Runtime interface instructions; baseline accounting already
            # counted their own µop, the extra lock-location write/read is
            # charged as "other".
            self.stats.other_uops += 1
            return baseline

        return baseline


# -- template compilation ------------------------------------------------------------
#
# For a fixed configuration (pointer identification is stateless) the
# expansion of a macro instruction is a pure function of the instruction's
# *static identity*: opcode, register operands, access size and pointer hint.
# The compiled trace pipeline therefore runs the injector once per identity,
# snapshots the µop list and the statistics it contributed, and replays that
# template for every later dynamic instance — a list lookup instead of
# re-running decode + injection per instance.

#: Field order used by template statistic deltas (mirrors InjectionStats).
STAT_FIELDS = ("baseline_uops", "check_uops", "bounds_check_uops",
               "pointer_load_uops", "pointer_store_uops", "select_uops",
               "frame_uops", "other_uops")


@dataclass(frozen=True)
class InjectionTemplate:
    """The precompiled expansion of one static instruction identity.

    ``uops`` is the exact µop list the injector produced (shared, never
    mutated); ``stat_delta`` / ``pointer_delta`` are the per-expansion
    contributions to :class:`InjectionStats` and
    :class:`~repro.core.pointer_id.PointerIdStats`, so a trace's totals are
    ``sum(instances(t) * t.delta for t in templates)`` — bit-identical to
    accumulating them one dynamic instance at a time.
    """

    uops: tuple
    stat_delta: tuple
    pointer_delta: tuple

    @property
    def total_cost(self) -> int:
        return sum(u.uop_cost for u in self.uops)


def stats_snapshot(stats: InjectionStats) -> tuple:
    """The stat fields as a plain tuple (for cheap delta computation)."""
    return tuple(getattr(stats, name) for name in STAT_FIELDS)


def compile_template(injector: UopInjector, inst: Instruction,
                     expand) -> InjectionTemplate:
    """Run one expansion of ``inst`` and capture the µop list + stat deltas.

    ``expand`` is the caller's full expansion around ``injector`` (the
    stream compiler's adds the copy-elimination ablation's µop and counts
    it in the injector's statistics), so the template captures exactly what
    one dynamic instance would have produced.
    """
    identifier = injector.pointer_identifier
    before = stats_snapshot(injector.stats)
    before_ptr = (identifier.stats.memory_ops, identifier.stats.pointer_ops)
    uops = expand(inst)
    after = stats_snapshot(injector.stats)
    after_ptr = (identifier.stats.memory_ops, identifier.stats.pointer_ops)
    return InjectionTemplate(
        uops=tuple(uops),
        stat_delta=tuple(a - b for a, b in zip(after, before)),
        pointer_delta=(after_ptr[0] - before_ptr[0], after_ptr[1] - before_ptr[1]),
    )
