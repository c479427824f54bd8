"""Flat-array stream compilation: the packed µop word is the only form.

The stream compiler emits kernel-ready ``array("q")`` columns directly
(``CompiledStream.words``), and both schedulers read those words.  These
tests pin down the contract:

* every compiled stream, across every benchmark profile and every Table 2
  configuration, is a word column that the one decoder
  (:func:`repro.native._timecore.unpack_words`) and the one encoder
  (:func:`repro.native._timecore.pack_entry_words`) round-trip;
* every template the compiler can build fits the packed word: every
  generator shape and every opcode at its highest legal registers, under
  every configuration class;
* the encoder refuses a field that does not fit, instead of emitting a
  word the kernel would misread.
"""

from array import array

import pytest

from repro.core.config import WatchdogConfig
from repro.isa.instructions import Instruction, Opcode, PointerHint
from repro.isa.microops import UopKind
from repro.isa.registers import FP_REGS, INT_REGS, NUM_REG_SLOTS
from repro.native._timecore import pack_entry_words, unpack_words
from repro.pipeline.core import FLAG_LQ, FLAG_MISPREDICT, FLAG_SQ
from repro.sim.compiled import StreamCompiler
from repro.sim.trace import LQ_KINDS, SQ_KINDS
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import benchmark_names
from repro.workloads.synthetic import SHAPE_INSTRUCTIONS

CONFIGURATIONS = {
    "baseline": WatchdogConfig.disabled(),
    "conservative": WatchdogConfig.conservative_uaf(),
    "isa-assisted": WatchdogConfig.isa_assisted_uaf(),
    "no-lock-cache": WatchdogConfig.no_lock_cache(),
    "ideal-shadow": WatchdogConfig.idealized_shadow(),
    "bounds-fused": WatchdogConfig.full_safety_fused(),
    "bounds-2uop": WatchdogConfig.full_safety_two_uops(),
    "no-copy-elim": WatchdogConfig.isa_assisted_uaf().with_(
        copy_elimination=False),
}

INSTRUCTIONS = 600
SEED = 11

KINDS = {kind.code: kind for kind in UopKind}


class TestStreamWords:
    """Every compiled stream is packed words, every profile/config."""

    @pytest.mark.parametrize("profile_name", benchmark_names())
    def test_words_round_trip_and_match_the_statistics(self, profile_name):
        bundle = TraceBundle.generate(profile_name, seed=SEED,
                                      instructions=INSTRUCTIONS)
        for label, config in CONFIGURATIONS.items():
            stream = bundle.compiled_streams(config).measured
            words = stream.words
            assert isinstance(words, array) and words.typecode == "q", label
            entries = unpack_words(words)
            assert pack_entry_words(entries) == words, label
            assert len(stream) == len(words) == len(stream.lat_template)
            # The decoded cost field sums to the stream's exact µop count,
            # and the queue flags agree with the decoded kinds.
            assert sum(entry[1] for entry in entries) == stream.total_uops
            for flags, *_ in entries:
                kind = KINDS[flags & 31]
                assert bool(flags & FLAG_LQ) == (kind in LQ_KINDS), label
                assert bool(flags & FLAG_SQ) == (kind in SQ_KINDS), label

    def test_columns_are_int64_arrays(self):
        bundle = TraceBundle.generate("mcf", seed=SEED,
                                      instructions=INSTRUCTIONS)
        streams = bundle.compiled_streams(WatchdogConfig.isa_assisted_uaf())
        measured = streams.measured
        for column in (measured.words, measured.lat_template,
                       measured.mem_pos, measured.mem_addr,
                       measured.mem_spec):
            assert isinstance(column, array) and column.typecode == "q"
        assert isinstance(streams.warm.addrs, array)
        assert isinstance(streams.warm.specs, array)


def _highest_register_instructions():
    """Every opcode with ``r15``/``f15`` operands in each legal arrangement:
    the largest register slots an instruction can name."""
    r15, f15 = INT_REGS[-1], FP_REGS[-1]
    return [Instruction(opcode, dest=dest, srcs=srcs, pointer_hint=hint)
            for opcode in Opcode
            for dest in (None, r15, f15)
            for srcs in ((r15, f15), (f15, r15))
            for hint in PointerHint
            if dest is not None or opcode not in (
                Opcode.LOAD, Opcode.FLOAD, Opcode.GETIDENT)]


class TestEveryTemplateFits:
    """No instruction the model admits overflows the packed word."""

    @pytest.mark.parametrize("label", sorted(CONFIGURATIONS))
    def test_templates_pack_and_round_trip(self, label):
        compiler = StreamCompiler(CONFIGURATIONS[label])
        insts = list(SHAPE_INSTRUCTIONS) + _highest_register_instructions()
        highest = -1
        for inst in insts:
            # Building packs the template's words; a field that does not
            # fit would raise ValueError here.
            template = compiler._build_template(inst)
            for words in (template.words, template.mis_words):
                if words is None:
                    continue
                entries = unpack_words(words)
                assert pack_entry_words(entries) == words, inst
                for entry in entries:
                    # Every register field indexes the Python scheduler's
                    # scoreboards, which hold NUM_REG_SLOTS slots.
                    assert all(-1 <= slot < NUM_REG_SLOTS
                               for slot in entry[2:]), (inst, entry)
                    highest = max(highest, *entry[2:])
            if template.mis_words is not None:
                assert any(word & FLAG_MISPREDICT
                           for word in template.mis_words), inst
        # The inputs reach the last slot, so the bound above is tight.
        assert highest == NUM_REG_SLOTS - 1


class TestPackedWordFormat:
    """The encoder and decoder agree and the encoder refuses overflow."""

    IN_RANGE = [
        (511, 63, 62, -1, 62, -1, 62, -1),
        (0, 0, -1, -1, -1, -1, -1, -1),
        (5, 3, 0, 1, 2, 3, 4, 5),
    ]
    OVERFLOW = [
        (0, 64, 0, -1, -1, -1, -1, -1),    # cost too wide
        (512, 0, 0, -1, -1, -1, -1, -1),   # flags too wide
        (0, 0, 63, -1, -1, -1, -1, -1),    # slot too wide
        (0, 0, -2, -1, -1, -1, -1, -1),    # slot below the none marker
        (0, -1, 0, -1, -1, -1, -1, -1),    # negative cost
    ]

    def test_round_trip(self):
        words = pack_entry_words(self.IN_RANGE)
        assert isinstance(words, array) and words.typecode == "q"
        assert unpack_words(words) == self.IN_RANGE

    def test_overflow_refused(self):
        for row in self.OVERFLOW:
            with pytest.raises(ValueError):
                pack_entry_words(self.IN_RANGE + [row])
