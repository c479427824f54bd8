"""Tests for Watchdog µop injection (§3, Figures 2 and 3)."""

import itertools

import pytest

from repro.core.config import (
    BoundsCheckMode,
    PointerIdentificationMode,
    WatchdogConfig,
)
from repro.core.uop_injection import InjectionStats, UopInjector
from repro.isa.decoder import Decoder
from repro.isa.instructions import Instruction, Opcode, PointerHint
from repro.isa.microops import WATCHDOG_KINDS, UopKind
from repro.isa.registers import fp_reg, int_reg
from repro.program.ir import OpKind
from repro.sim.compiled import StreamCompiler
from repro.sim.results import CellResult
from repro.sim.simulator import SimulationOutcome
from repro.workloads.attacks import all_attack_scenarios
from repro.workloads.juliet import JulietSuite
from repro.workloads.synthetic import SHAPE_INSTRUCTIONS


def injector_for(config=None):
    return UopInjector(config or WatchdogConfig.isa_assisted_uaf())


def pointer_load():
    return Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                       pointer_hint=PointerHint.POINTER)


def plain_load():
    return Instruction(Opcode.LOAD, dest=int_reg(1), srcs=(int_reg(2),),
                       pointer_hint=PointerHint.NOT_POINTER)


def pointer_store():
    return Instruction(Opcode.STORE, srcs=(int_reg(2), int_reg(3)),
                       pointer_hint=PointerHint.POINTER)


class TestLoadStoreInjection:
    def test_every_load_gets_a_check(self):
        uops = injector_for().expand(plain_load())
        assert [u.kind for u in uops][0] is UopKind.CHECK

    def test_every_store_gets_a_check(self):
        inst = Instruction(Opcode.STORE, srcs=(int_reg(2), int_reg(3)),
                           pointer_hint=PointerHint.NOT_POINTER)
        kinds = [u.kind for u in injector_for().expand(inst)]
        assert UopKind.CHECK in kinds

    def test_fp_load_still_checked_but_no_shadow(self):
        inst = Instruction(Opcode.FLOAD, dest=fp_reg(0), srcs=(int_reg(2),))
        kinds = [u.kind for u in injector_for().expand(inst)]
        assert UopKind.CHECK in kinds
        assert UopKind.SHADOW_LOAD not in kinds

    def test_pointer_load_gets_shadow_load(self):
        """Figure 2a: check + value load + shadow metadata load."""
        kinds = [u.kind for u in injector_for().expand(pointer_load())]
        assert kinds == [UopKind.CHECK, UopKind.LOAD, UopKind.SHADOW_LOAD]

    def test_non_pointer_load_has_no_shadow_load(self):
        kinds = [u.kind for u in injector_for().expand(plain_load())]
        assert UopKind.SHADOW_LOAD not in kinds

    def test_pointer_store_gets_shadow_store(self):
        """Figure 2b: check + shadow metadata store + value store."""
        kinds = [u.kind for u in injector_for().expand(pointer_store())]
        assert UopKind.CHECK in kinds and UopKind.SHADOW_STORE in kinds
        assert kinds.index(UopKind.SHADOW_STORE) < kinds.index(UopKind.STORE)

    def test_conservative_mode_shadows_unannotated_word_loads(self):
        injector = injector_for(WatchdogConfig.conservative_uaf())
        kinds = [u.kind for u in injector.expand(plain_load())]
        assert UopKind.SHADOW_LOAD in kinds

    def test_injected_uops_are_marked(self):
        for uop in injector_for().expand(pointer_load()):
            if uop.kind is not UopKind.LOAD:
                assert uop.is_injected

    def test_check_uses_address_register_metadata(self):
        check = injector_for().expand(pointer_load())[0]
        assert check.meta_srcs == (int_reg(2),)


class TestDisabledAndArithmetic:
    def test_disabled_config_injects_nothing(self):
        injector = injector_for(WatchdogConfig.disabled())
        uops = injector.expand(pointer_load())
        assert len(uops) == 1
        assert injector.stats == InjectionStats(baseline_uops=1)

    def test_two_source_add_gets_select_uop(self):
        inst = Instruction(Opcode.ADD_RR, dest=int_reg(1),
                           srcs=(int_reg(2), int_reg(3)))
        kinds = [u.kind for u in injector_for().expand(inst)]
        assert UopKind.META_SELECT in kinds

    def test_add_immediate_gets_no_extra_uop(self):
        """§6.2: single-source propagation is handled at rename, zero µops."""
        inst = Instruction(Opcode.ADD_RI, dest=int_reg(1), srcs=(int_reg(2),), imm=8)
        assert len(injector_for().expand(inst)) == 1

    def test_call_and_return_get_frame_uops(self):
        injector = injector_for()
        call_kinds = [u.kind for u in injector.expand(Instruction(Opcode.CALL))]
        ret_kinds = [u.kind for u in injector.expand(Instruction(Opcode.RET))]
        assert UopKind.LOCK_PUSH in call_kinds
        assert UopKind.LOCK_POP in ret_kinds

    def test_frame_uops_cost_four(self):
        """Figure 3c/3d: the hardware injects four µops on call and return."""
        uops = injector_for().expand(Instruction(Opcode.CALL))
        frame = [u for u in uops if u.kind is UopKind.LOCK_PUSH][0]
        assert frame.uop_cost == 4


class TestBoundsModes:
    def test_separate_mode_adds_bounds_check_uop(self):
        injector = injector_for(WatchdogConfig.full_safety_two_uops())
        kinds = [u.kind for u in injector.expand(plain_load())]
        assert UopKind.BOUNDS_CHECK in kinds

    def test_fused_mode_adds_no_extra_uop(self):
        fused = injector_for(WatchdogConfig.full_safety_fused())
        plain = injector_for(WatchdogConfig.isa_assisted_uaf())
        assert len(fused.expand(plain_load())) == len(plain.expand(plain_load()))

    def test_bounds_mode_widens_shadow_transfers(self):
        """§8: 256-bit metadata doubles the shadow transfer cost."""
        fused = injector_for(WatchdogConfig.full_safety_fused())
        uops = fused.expand(pointer_load())
        shadow = [u for u in uops if u.kind is UopKind.SHADOW_LOAD][0]
        assert shadow.uop_cost == 2


def _every_instruction():
    """Each distinct instruction a run can expand: every generator shape
    plus every instruction of the Juliet cases (faulty and benign) and the
    attack programs."""
    suite = JulietSuite()
    programs = [case.program
                for case in suite.faulty_cases() + suite.benign_cases()]
    programs += [scenario.program() for scenario in all_attack_scenarios()]
    distinct = {repr(inst): inst for inst in SHAPE_INSTRUCTIONS}
    for program in programs:
        for function in program.functions.values():
            for op in function:
                if op.kind is OpKind.MACRO:
                    distinct.setdefault(repr(op.instruction), op.instruction)
    return list(distinct.values())


EVERY_INSTRUCTION = _every_instruction()

#: One configuration per configuration class (the knobs that change which
#: µops are injected): the baseline plus every enabled combination.
CLASSES = [WatchdogConfig.disabled()] + [
    WatchdogConfig(pointer_identification=mode, bounds_mode=bounds,
                   copy_elimination=elimination)
    for mode, bounds, elimination in itertools.product(
        PointerIdentificationMode, BoundsCheckMode, (True, False))]


class TestInjectedKinds:
    """``MicroOp.is_injected`` reads the kind alone: the decoder never emits
    a Watchdog kind, and everything injection adds is one."""

    def test_the_inputs_cover_every_shape_and_program_instruction(self):
        assert len(EVERY_INSTRUCTION) == 648

    @pytest.mark.parametrize(
        "config", CLASSES,
        ids=lambda c: "baseline" if not c.enabled else
        f"{c.pointer_identification.value}+{c.bounds_mode.value}"
        f"{'' if c.copy_elimination else '+no-copy-elim'}")
    def test_decoder_emits_none_and_injection_adds_only_watchdog_kinds(
            self, config):
        decoder = Decoder()
        injector = UopInjector(config)
        compiler = StreamCompiler(config)
        for inst in EVERY_INSTRUCTION:
            baseline = decoder.decode(inst)
            assert not any(uop.kind in WATCHDOG_KINDS for uop in baseline), inst
            expanded = injector.expand(inst)
            assert [uop for uop in expanded
                    if uop.kind not in WATCHDOG_KINDS] == baseline, inst
            full = compiler._full_expand(inst)
            assert full[:len(expanded)] == expanded, inst
            assert all(uop.kind in WATCHDOG_KINDS
                       for uop in full[len(expanded):]), inst


class TestStats:
    def test_overhead_fraction_and_breakdown(self):
        injector = injector_for()
        for _ in range(10):
            injector.expand(pointer_load())
            injector.expand(plain_load())
        stats = injector.stats
        assert stats.baseline_uops == 20
        assert stats.check_uops == 20
        assert stats.pointer_load_uops == 10
        # Figure 8 reads the bar and its segments off the cell these
        # counts fill.
        cell = CellResult.from_outcome(SimulationOutcome("b", "c",
                                                         injection=stats))
        assert cell.uop_overhead_fraction() > 1.0
        breakdown = cell.uop_breakdown()
        assert set(breakdown) == {"checks", "pointer_loads", "pointer_stores", "other"}
        assert breakdown["checks"] == pytest.approx(1.0)
