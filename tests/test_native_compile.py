"""Native stream compilation: the timing kernel writes the compiled columns.

``compile_run`` in :mod:`repro.native._timecore` replays a token window
through a class's template table in one C pass.  For every window it must
write, column for column, what the Python compile loops write — packed
words, latency prefill, the memory-access columns, the warm stream — with
the same statistics and page word sets.  The Python loops are the oracle
(``StreamCompiler(config)`` without a kernel).

Also here: the load-time self-test refuses a kernel that corrupts one
output column, and stays within its time budget.
"""

import ctypes
import time

import pytest

from repro.core.config import WatchdogConfig
from repro.isa.instructions import Instruction, Opcode
from repro.native import _timecore
from repro.program.builder import ProgramBuilder
from repro.program.machine import Machine
from repro.sim import compiled
from repro.sim.compiled import StreamCompiler, stream_class_key, tokenize
from repro.sim.sampling import SamplingConfig
from repro.sim.trace import DynamicOp, TraceTokens
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import benchmark_names, long_profile_names

from tests.test_compiled_pipeline import CONFIGURATIONS, INSTRUCTIONS, SEED

LIB = _timecore.load()

needs_kernel = pytest.mark.skipif(LIB is None,
                                  reason="native timing core unavailable")

#: One configuration per configuration class.
CLASSES = list({stream_class_key(config): config
                for config in CONFIGURATIONS.values()}.values())


def assert_same(config, measured=None, warm=None):
    """Kernel and Python compilers agree on ``measured`` and ``warm``."""
    kernel = StreamCompiler(config, lib=LIB)
    python = StreamCompiler(config)
    if measured is not None:
        got = kernel.compile_measured(measured)
        want = python.compile_measured(measured)
        for column in (got.words, got.lat_template, got.mem_pos,
                       got.mem_addr, got.mem_spec):
            assert column.typecode == "q"
        assert _timecore._same_streams(got, want)
    if warm is not None:
        got = kernel.compile_warm(warm)
        want = python.compile_warm(warm)
        assert got.addrs.typecode == got.specs.typecode == "q"
        assert _timecore._same_streams(got, want)


def call_heavy_program():
    """Nested calls, pointer loads and stores, a heap, a stack and a global
    object, sub-word and floating-point accesses."""
    builder = ProgramBuilder()
    with builder.function("leaf") as leaf:
        leaf.load_ptr("r5", "r1")
        leaf.store_ptr("r1", "r5", 8)
        leaf.ret()
    with builder.function("mid") as mid:
        mid.call("leaf")
        mid.stack_alloc("r6", 32)
        mid.store("r6", "r2", 0, 4)
        mid.call("leaf")
        mid.ret()
    with builder.function("main") as main:
        main.malloc("r1", 64)
        main.global_addr("r3", 16)
        main.mov_imm("r2", 7)
        main.store("r3", "r2")
        main.call("mid")
        main.call("leaf")
        main.fload("f1", "r1", 8)
        main.free("r1")
    return builder.build()


@needs_kernel
class TestKernelMatchesPython:
    @pytest.mark.parametrize("profile_name", benchmark_names())
    def test_profile_under_every_configuration(self, profile_name):
        (window,) = TraceBundle.generate(profile_name, seed=SEED,
                                         instructions=INSTRUCTIONS).samples
        for config in CONFIGURATIONS.values():
            assert_same(config, window.measured, window.warmup)

    @pytest.mark.parametrize("profile_name", long_profile_names())
    def test_every_quick_sample_of_a_long_profile(self, profile_name):
        bundle = TraceBundle.generate(profile_name, seed=SEED,
                                      instructions=300_000,
                                      sampling=SamplingConfig.quick())
        assert len(bundle.samples) == 3
        for sample in bundle.samples:
            for config in CLASSES:
                assert_same(config, sample.measured, sample.warmup)

    def test_functional_machine_trace(self):
        program = call_heavy_program()
        call = DynamicOp(Instruction(Opcode.CALL))
        ret = DynamicOp(Instruction(Opcode.RET))
        for config in CONFIGURATIONS.values():
            trace = Machine(config, record_trace=True).run(program).trace
            assert trace
            # The machine interprets calls without recording them: frame
            # the trace in CALL/RET pairs, after a RET before any CALL
            # (which pops the frame-lock stack it never pushed).
            tokens = tokenize([ret, call] + trace + [call] + trace[:4]
                              + [ret, ret, ret])
            assert_same(config, tokens, tokens)

    def test_empty_window(self):
        for config in CLASSES:
            assert_same(config, TraceTokens(), TraceTokens())
        stream = StreamCompiler(CLASSES[0], lib=LIB).compile_measured(
            TraceTokens())
        assert len(stream) == stream.total_uops == 0

    def test_streams_of_a_bundle_equal_across_the_decision(self):
        bundle = TraceBundle.generate("mcf", seed=SEED,
                                      instructions=INSTRUCTIONS)
        config = WatchdogConfig.isa_assisted_uaf()
        native = bundle.compiled_streams(config)
        python = bundle.compiled_sample_streams(0, config, timecore=False)
        assert native is not python
        assert _timecore._same_streams(native.measured, python.measured)
        assert _timecore._same_streams(native.warm, python.warm)
        assert bundle.compiled_streams(config) is native


def test_a_full_table_restarts_as_a_new_table(monkeypatch):
    (window,) = TraceBundle.generate("gcc", seed=SEED,
                                     instructions=INSTRUCTIONS).samples
    config = WatchdogConfig.isa_assisted_uaf()
    want = StreamCompiler(config).compile_measured(window.measured)
    monkeypatch.setattr(compiled, "_TEMPLATE_CACHE", {})
    monkeypatch.setattr(compiled, "_TEMPLATE_CACHE_LIMIT", 4)
    compiler = StreamCompiler(config, lib=LIB)
    full = compiler._table
    first = compiler.compile_measured(window.measured)
    # One window may overfill a table; the next starts a fresh one.
    assert len(full.templates) > 4
    again = compiler.compile_measured(window.measured)
    assert compiler._table is not full
    assert compiled._TEMPLATE_CACHE[compiler._cache_key] is compiler._table
    assert _timecore._same_streams(first, want)
    assert _timecore._same_streams(again, want)


class _Corrupting:
    """The real kernel, except that each writing ``compile_run`` call
    changes the first value it wrote into one output column."""

    #: Output column -> its ``compile_run`` argument index.
    COLUMNS = {"words": 14, "lats": 15, "mem_pos": 16, "mem_addr": 17,
               "mem_spec": 18, "data_words": 19, "shadow_words": 20,
               "totals": 22}

    def __init__(self, lib, column):
        self._lib = lib
        self._arg = self.COLUMNS[column]

    def compile_run(self, *args):
        status = self._lib.compile_run(*args)
        if args[13] is None and args[self._arg]:
            cell = ctypes.c_longlong.from_address(args[self._arg])
            cell.value += 8
        return status

    def __getattr__(self, name):
        return getattr(self._lib, name)


@needs_kernel
class TestSelfTest:
    def test_accepts_the_kernel(self):
        assert _timecore._self_test(LIB) == (True, None)

    @pytest.mark.parametrize("column", sorted(_Corrupting.COLUMNS))
    def test_refuses_a_corrupted_column(self, column):
        assert _timecore._self_test(_Corrupting(LIB, column)) == \
            (False, "compile_run")

    def test_stage_is_cheap(self):
        best = min(_timed(_timecore._self_test_compile, LIB)
                   for _ in range(3))
        assert best < 0.010


def _timed(fn, *args):
    start = time.perf_counter()
    assert fn(*args)
    return time.perf_counter() - start
