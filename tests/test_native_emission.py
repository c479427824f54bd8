"""Native emission: the generator kernel writes the compiler's token columns.

The kernel's emit mode (``ff_advance`` with an output pointer) must write,
column for column, what :func:`repro.sim.compiled.tokenize` makes of the
Python emitter's ops — identities numbered first-seen per window, addresses
and lock locations with :data:`NO_ADDRESS` for "none", mispredict flags —
and leave the workload in exactly the state the Python emitter leaves it
in.  The Python emitter is the oracle (``_ffcore = None``).

Also here: :class:`TraceTokens` read as the ``DynamicOp`` s they stand for,
and the load-time self-test refuses a kernel that writes one wrong lock
location or one wrong register.
"""

import ctypes
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.compiled import tokenize
from repro.sim.trace import NO_ADDRESS, DynamicOp, TraceTokens
from repro.workloads import _ffcore
from repro.workloads.profiles import (
    SPEC_PROFILES,
    BenchmarkProfile,
    benchmark_names,
    long_profile_names,
    profile_by_name,
)
from repro.workloads.synthetic import (
    SHAPE_INSTRUCTIONS,
    SHAPES,
    SyntheticWorkload,
)

from tests.test_fast_forward import state_fingerprint

needs_kernel = pytest.mark.skipif(
    _ffcore.load() is None, reason="native fast-forward kernel unavailable")

ALLOC_HEAVY = BenchmarkProfile(
    name="alloc-heavy-test", memory_fraction=0.3, load_fraction=0.6,
    word_integer_fraction=0.4, pointer_fraction=0.3,
    fp_access_fraction=0.05, fp_compute_fraction=0.1,
    branch_fraction=0.15, mispredict_rate=0.05, calls_per_kilo=5.0,
    allocs_per_kilo=60.0, typical_alloc_bytes=96,
    working_set_objects=64, temporal_locality=0.7,
    spatial_locality=0.6)


def _span(field):
    values = [getattr(profile, field)
              for profile in SPEC_PROFILES + (ALLOC_HEAVY,)]
    return min(values), max(values)


#: Each profile field's (low, high) over the SPEC profiles and ALLOC_HEAVY,
#: the alloc-heavy corner (60 allocations per 1000 ops) they lack.
SPANS = {field.name: _span(field.name)
         for field in dataclasses.fields(BenchmarkProfile)
         if field.name != "name"}


@st.composite
def drawn_profiles(draw):
    """Valid profiles inside :data:`SPANS`; a pointer fraction never above
    the word-integer fraction it is part of."""
    fields = {}
    for name, (low, high) in SPANS.items():
        if name == "pointer_fraction":
            high = min(high, fields["word_integer_fraction"])
        fields[name] = draw(st.integers(low, high) if isinstance(low, int)
                            else st.floats(low, high))
    return BenchmarkProfile(name="drawn", **fields)


def pair(profile, seed):
    """Twin workloads: one on the kernel, one on the Python emitter."""
    native = SyntheticWorkload(profile, seed=seed)
    python = SyntheticWorkload(profile, seed=seed)
    assert native._ffcore is not None
    python._ffcore = None
    return native, python


def assert_same_columns(native, python):
    assert isinstance(native, TraceTokens)
    assert isinstance(python, TraceTokens)
    assert native.tids == python.tids
    assert native.addrs == python.addrs
    assert native.locks == python.locks
    assert native.mis == python.mis
    assert native.insts == python.insts


def check(native, python, call, count):
    """One window through both emitters, then their states."""
    got = getattr(native, call)(count)
    assert len(got) == count
    assert_same_columns(got, getattr(python, call)(count))
    assert state_fingerprint(native) == state_fingerprint(python)
    assert native._pending == python._pending


@needs_kernel
class TestNativeMatchesPython:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_spec_profile(self, name):
        native, python = pair(profile_by_name(name), 7)
        check(native, python, "trace", 2_000)
        check(native, python, "trace", 1_000)
        check(native, python, "emit", 4_000)
        check(native, python, "emit", 1)

    @pytest.mark.parametrize("name", long_profile_names())
    def test_long_profile(self, name):
        native, python = pair(profile_by_name(name), 7)
        check(native, python, "emit", 10_000)
        native.fast_forward(50_000)
        python.fast_forward(50_000)
        check(native, python, "emit", 3_000)

    @pytest.mark.parametrize("name", ["mcf-paper", "gcc-paper"])
    def test_paper_profile_after_fast_forward(self, name):
        native, python = pair(profile_by_name(name), 11)
        native.fast_forward(300_000)
        python.fast_forward(300_000)
        assert state_fingerprint(native) == state_fingerprint(python)
        check(native, python, "emit", 4_000)

    def test_random_partitions_split_allocation_events(self):
        meta = random.Random(20261018)
        for seed in (11, 12, 13):
            native, python = pair(ALLOC_HEAVY, seed)
            for _ in range(25):
                skip = meta.choice((0, 1, 2, 3, 7, 13, meta.randrange(1, 40),
                                    meta.randrange(50, 3000)))
                native.fast_forward(skip)
                python.fast_forward(skip)
                check(native, python, "emit", meta.randrange(1, 90))

    @given(profile=drawn_profiles(), seed=st.integers(0, 1 << 16),
           windows=st.lists(
               st.tuples(st.one_of(st.just(1), st.integers(0, 40),
                                   st.integers(41, 3_000)),
                         st.integers(1, 90)),
               min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_drawn_profiles_and_partitions(self, profile, seed, windows):
        """Any profile in the SPEC field ranges, any skip/emit partition:
        the kernel's skip and emission match the emission layer's."""
        native, python = pair(profile, seed)
        for skip, take in windows:
            native.fast_forward(skip)
            python.fast_forward(skip)
            check(native, python, "emit", take)

    def test_after_slot_compaction(self):
        native, python = pair(profile_by_name("perl"), 3)
        native.COMPACT_RETIRED_SLOTS = python.COMPACT_RETIRED_SLOTS = 4
        for count in (8_000, 5_000, 7):
            check(native, python, "emit", count)
        native.fast_forward(20_000)
        python.fast_forward(20_000)
        check(native, python, "emit", 3_000)
        # Compaction genuinely fired on both.
        assert len(native._slot_sizes) - len(native._order) < 8


class TestTokenWindows:
    def test_python_emitter_is_tokenize_of_its_ops(self):
        python = SyntheticWorkload(profile_by_name("gcc"), seed=5)
        python._ffcore = None
        reference = SyntheticWorkload(profile_by_name("gcc"), seed=5)
        assert_same_columns(python.trace(3_000),
                            tokenize(list(reference.generate(3_000))))

    def test_trace_and_fast_forward_do_not_count_as_emit(self, monkeypatch):
        """A traced pass wraps ``emit``; its callers' ops must not count
        twice."""
        def refuse(self, count):
            raise AssertionError("emit() called")

        workload = SyntheticWorkload(profile_by_name("perl"), seed=2)
        monkeypatch.setattr(SyntheticWorkload, "emit", refuse)
        assert len(workload.trace(500)) == 500
        workload.fast_forward(5_003)

    def test_empty_windows(self):
        workload = SyntheticWorkload(profile_by_name("perl"), seed=2)
        assert workload.emit(0) == TraceTokens() == ()
        assert len(workload.trace(0)) == 0

    def test_every_shape_is_a_distinct_identity(self):
        ops = [DynamicOp(inst) for inst in SHAPE_INSTRUCTIONS]
        assert len(tokenize(ops).insts) == len(SHAPES) == _ffcore.N_SHAPES


class TestTraceTokens:
    OPS_SEED = 4

    def tokens(self):
        return SyntheticWorkload(profile_by_name("mcf"), seed=self.OPS_SEED) \
            .trace(400)

    def ops(self):
        workload = SyntheticWorkload(profile_by_name("mcf"),
                                     seed=self.OPS_SEED)
        return list(workload.generate(400))

    def test_reads_as_its_dynamic_ops(self):
        tokens, ops = self.tokens(), self.ops()
        assert len(tokens) == len(ops)
        assert list(tokens) == ops
        assert tokens[7] == ops[7] and tokens[-1] == ops[-1]
        assert tokens[10:20] == ops[10:20]
        assert tokens == tuple(ops) and tokens == ops
        assert tokens != ops[:-1]

    def test_none_is_the_sentinel(self):
        tokens = tokenize([DynamicOp(op.instruction) for op in self.ops()])
        assert set(tokens.addrs) == set(tokens.locks) == {NO_ADDRESS}
        assert all(op.address is None and op.lock_address is None
                   for op in tokens)

    def test_equality_is_column_by_column(self):
        tokens = self.tokens()
        other = self.tokens()
        assert tokens == other
        other.locks[3] += 8
        assert tokens != other

    def test_pickles_and_is_unhashable(self):
        tokens = self.tokens()
        assert pickle.loads(pickle.dumps(tokens)) == tokens
        with pytest.raises(TypeError):
            hash(tokens)


class _Corrupting:
    """The real kernel, except that each emit-mode call changes one field
    of one row it wrote: the shape of its first row (one register or
    operand of its instruction), or the first lock location it wrote."""

    def __init__(self, lib, column):
        self._lib = lib
        self._column = column

    def ff_advance(self, *args):
        scal = (ctypes.c_longlong * _ffcore.SCAL_SLOTS).from_address(args[1])
        start = scal[_ffcore.SCAL_WRITTEN]
        reason = self._lib.ff_advance(*args)
        out = args[-1]
        if out:
            address = (ctypes.c_uint64 * 4).from_address(out)[self._column]
            for row in range(start, scal[_ffcore.SCAL_WRITTEN]):
                cell = ctypes.c_longlong.from_address(address + 8 * row)
                if self._column == 0:
                    cell.value = (cell.value + 1) % _ffcore.N_SHAPES
                    break
                if cell.value != NO_ADDRESS:
                    cell.value += 64
                    break
        return reason

    def __getattr__(self, name):
        return getattr(self._lib, name)


@needs_kernel
@pytest.mark.parametrize("column", [0, 2], ids=["register", "lock"])
class TestSelfTestRefusesWrongRows:
    def test_load_time_self_test(self, column):
        assert _ffcore._self_test(_ffcore.load()) == (True, None)
        assert _ffcore._self_test(_Corrupting(_ffcore.load(), column)) == \
            (False, "emission")

    def test_equivalence_check(self, column):
        profile = dataclasses.replace(ALLOC_HEAVY, name="corrupt-test")
        native, python = pair(profile, 3)
        native._ffcore = _Corrupting(native._ffcore, column)
        assert native.emit(500) != python.emit(500)
