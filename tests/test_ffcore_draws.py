"""The generator kernel's draw layer.

The kernel draws MT19937 words from a buffer it refills one 624-word block
at a time, and tests ``random() < p`` as ``draw53() < ceil(p * 2**53)`` on
the 53-bit integer ``random()`` divides by ``2**53``.  The loader's
``draws`` self-test stage feeds ``ff_selftest`` MT states whose next words
were chosen by untempering, so that every probability is probed at its
threshold and one step either side, entering a block at its start, at its
last word and past its end.

Here: the stage's helpers choose the draws they claim to, the stage refuses
four broken draw layers, the kernel's test agrees with Python's comparison
for any double, and a kernel skip entered anywhere in a block ends where
the Python emitter's does.
"""

import math
import random
import time
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.native import build
from repro.workloads import _ffcore
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import SyntheticWorkload

LIB = _ffcore.load()

needs_kernel = pytest.mark.skipif(
    LIB is None, reason="native fast-forward kernel unavailable")

#: Broken draw layers, as (C text, replacement), that the ``draws`` stage
#: must refuse.
MUTANTS = {
    "threshold-rounded-down": ("return t + ((double)t < x);", "return t;"),
    "compare-at-or-below": ("return draw53(st) < t;",
                            "return draw53(st) <= t;"),
    "second-word-never-read": ("return a << 26 | genrand(st) >> 6;",
                               "return a << 26;"),
    "tempered-before-twist": ("twist(st->mt);\n    temper(st, 0);",
                              "temper(st, 0);\n    twist(st->mt);"),
}


def temper(y):
    """MT19937's output word for state word ``y``."""
    y ^= y >> 11
    y ^= (y << 7) & 0x9d2c5680
    y ^= (y << 15) & 0xefc60000
    return y ^ (y >> 18)


def raw_words(values):
    """The state words that make ``random()`` return ``n / 2**53`` for
    each n of ``values`` in turn."""
    return [_ffcore._untemper(w)
            for n in values for w in _ffcore._res53_words(n)]


@given(st.integers(0, 2**32 - 1))
def test_untemper_inverts_the_tempering(y):
    assert temper(_ffcore._untemper(y)) == y


@pytest.mark.parametrize("mti", [0, 623, 624])
def test_chosen_words_are_what_random_draws(mti):
    """Within the block, across its end, and after its twist."""
    values = [0, 1, 2**52, 2**53 - 1] + [n for _, n in
                                         _ffcore._threshold_cases((0.1,))]
    rng = random.Random(11)
    state = rng.getstate()
    mt = _ffcore._state_with_words(state[1][:624], mti, raw_words(values))
    rng.setstate((state[0], tuple(mt) + (mti,), None))
    assert [rng.random() * 2**53 for _ in values] == values


def test_threshold_cases_straddle_each_threshold():
    """0.1 * 2**53 is not whole, 0.25 * 2**53 is; 0 and 1 lose the case
    outside the 53-bit range."""
    verdicts = {}
    for p, n in _ffcore._threshold_cases((0.0, 0.1, 0.25, 1.0)):
        verdicts.setdefault(p, []).append(n / 2**53 < p)
    assert verdicts == {0.0: [False, False], 0.1: [True, False, False],
                        0.25: [True, False, False], 1.0: [True]}


@needs_kernel
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_draw_stage_refuses_a_broken_draw_layer(mutant, tmp_path):
    old, new = MUTANTS[mutant]
    assert _ffcore._SOURCE.count(old) == 1
    so_path = tmp_path / "ffcore.so"
    assert build.compile_source(_ffcore._SOURCE.replace(old, new),
                                so_path) is None
    assert _ffcore._self_test(_ffcore._bind(so_path)) == (False, "draws")


@needs_kernel
def test_the_draw_stage_is_cheap():
    """~0.6 ms on a development machine and ~6 ms on the sanitized build
    with ``PYTHONMALLOC=malloc``; the bound catches a stage that grows by
    an order of magnitude."""
    constants = SyntheticWorkload(_ffcore._SELF_TEST_PROFILE,
                                  seed=5)._c_consts_d
    best = None
    for _ in range(5):
        started = time.perf_counter()
        assert _ffcore._draws_match(LIB, constants)
        wall = time.perf_counter() - started
        best = wall if best is None else min(best, wall)
    assert best < 0.02


def kernel_chance(p, n):
    """The kernel's ``random() < p`` where ``random()`` draws ``n / 2**53``."""
    mt = array("I", _ffcore._state_with_words([0] * 624, 0, raw_words([n])))
    index = array("q", [0])
    probabilities = array("d", [p])
    io = array("q", [0] * 17)
    LIB.ff_selftest(mt.buffer_info()[0], index.buffer_info()[0],
                    probabilities.buffer_info()[0], 1, io.buffer_info()[0])
    return bool(io[0])


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(p=st.one_of(st.floats(),
                   st.integers(0, 2**53).map(lambda k: k / 2**53)),
       n=st.integers(0, 2**53 - 1), offset=st.integers(-2, 2),
       near=st.booleans())
def test_chance_is_random_below_p_for_any_double(p, n, offset, near):
    """Whole and fractional p * 2**53 alike, and p outside [0, 1] or NaN;
    half the draws land within two steps of p's threshold."""
    if near and 0 <= p <= 1:
        n = min(max(0, math.ceil(p * 2**53) + offset), 2**53 - 1)
    assert kernel_chance(p, n) == (n / 2**53 < p)


@needs_kernel
@pytest.mark.parametrize("mti", [0, 1, 623, 624])
def test_a_skip_entered_anywhere_in_a_block_matches_python(mti):
    native = SyntheticWorkload(profile_by_name("perl"), seed=4)
    python = SyntheticWorkload(profile_by_name("perl"), seed=4)
    python._ffcore = None
    for workload in (native, python):
        state = workload.rng.getstate()
        workload.rng.setstate((state[0], state[1][:624] + (mti,), state[2]))
        workload.fast_forward(5_000)
    assert native.rng.getstate() == python.rng.getstate()
    assert native._slot_columns() == python._slot_columns()
    assert native.heap.columns() == python.heap.columns()
