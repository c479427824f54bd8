"""Flat-array stream compilation: packed words and fallbacks.

The stream compiler emits kernel-ready ``array("q")`` columns directly
(``CompiledStream.words``); the legacy per-µop tuple form is rebuilt on
demand.  These tests pin down the contract:

* the flat words are *bit-identical* to packing the legacy tuples through
  :func:`repro.native._timecore.pack_entry_words`, across every benchmark
  profile and every Table 2 configuration;
* a stream whose fields overflow the packed word format falls back to the
  tuple-only form and the Python scheduler with unchanged results.
"""

from array import array

import pytest

from repro.core.config import WatchdogConfig
from repro.native import _timecore
from repro.native._timecore import pack_entry_words, unpack_words
from repro.sim.simulator import Simulator
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import benchmark_names

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

KERNEL = _timecore.load()
needs_kernel = pytest.mark.skipif(KERNEL is None,
                                  reason="native timing core unavailable")


class TestFlatEqualsLegacyPacking:
    """compiler-emitted words == legacy tuple packing, every profile/config."""

    @pytest.mark.parametrize("profile_name", benchmark_names())
    def test_words_match_tuple_packing(self, profile_name):
        bundle = TraceBundle.generate(profile_name, seed=SEED,
                                      instructions=INSTRUCTIONS)
        for label, config in CONFIGURATIONS.items():
            stream = bundle.compiled_streams(config).measured
            assert stream.words is not None, \
                f"{profile_name}/{label}: stream is not flat"
            legacy = pack_entry_words(stream.uops)
            assert legacy is not None, \
                f"{profile_name}/{label}: tuples refuse to pack"
            assert stream.words == legacy, \
                f"{profile_name}/{label}: flat words diverge from tuple pack"
            # The tuple view round-trips back to the same words.
            assert unpack_words(stream.words) == stream.uops
            assert len(stream) == len(stream.words)

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

    def test_with_core_preserves_flat_form(self):
        bundle = TraceBundle.generate("gzip", seed=SEED,
                                      instructions=INSTRUCTIONS)
        stream = bundle.compiled_streams(WatchdogConfig.isa_assisted_uaf()) \
            .measured
        assert stream.with_core(stream.core) is stream
        moved = stream.with_core(stream.core + 3)
        assert moved.core == stream.core + 3
        assert moved.words is stream.words
        assert moved.lat_template is stream.lat_template
        assert moved.mem_addr is stream.mem_addr
        assert stream.core != moved.core  # original untouched


class TestPackedWordFormat:
    """The packers agree and reject out-of-range fields identically."""

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
        assert words is not None
        assert unpack_words(words) == self.IN_RANGE

    def test_overflow_refused(self):
        for row in self.OVERFLOW:
            assert pack_entry_words([row]) is None, row

    @needs_kernel
    def test_native_packer_matches_python(self):
        import random
        rng = random.Random(4441)
        rows = [tuple([rng.randrange(512), rng.randrange(64)]
                      + [rng.randrange(-1, 63) for _ in range(6)])
                for _ in range(300)] + self.IN_RANGE
        expected = pack_entry_words(rows)
        native = _timecore._pack_rows_native(KERNEL, rows)
        assert native is not None
        assert native == expected
        for row in self.OVERFLOW:
            assert _timecore._pack_rows_native(KERNEL, [row]) is None, row


class TestOverflowFallback:
    """Packing overflow at compile time degrades to the tuple-only path."""

    def test_tuple_only_stream_matches_flat_result(self, monkeypatch):
        config = WatchdogConfig.isa_assisted_uaf()
        bundle = TraceBundle.generate("mcf", seed=SEED,
                                      instructions=INSTRUCTIONS)
        flat = Simulator().run_bundle(bundle, config)

        # Simulate a stream whose templates exceed the packed-field ranges:
        # every pack attempt reports overflow, so the compiler must keep the
        # tuple form and the scheduler must take the Python path.  A fresh
        # template cache keeps the degraded templates out of other tests
        # (and other tests' flat templates out of this one).
        import repro.sim.compiled as compiled_module
        monkeypatch.setattr(compiled_module, "_TEMPLATE_CACHE", {})
        monkeypatch.setattr("repro.sim.compiled.pack_entry_words",
                            lambda uops: None)
        degraded_bundle = TraceBundle.generate("mcf", seed=SEED,
                                               instructions=INSTRUCTIONS)
        stream = degraded_bundle.compiled_streams(config).measured
        assert stream.words is None
        assert stream.__dict__["_tc_packed"] is False  # never repacked
        assert _timecore.pack_stream(stream) is None
        degraded = Simulator().run_bundle(degraded_bundle, config)
        assert degraded.timing == flat.timing

    def test_with_core_keeps_tuple_only_memo(self, monkeypatch):
        import repro.sim.compiled as compiled_module
        monkeypatch.setattr(compiled_module, "_TEMPLATE_CACHE", {})
        monkeypatch.setattr("repro.sim.compiled.pack_entry_words",
                            lambda uops: None)
        bundle = TraceBundle.generate("gzip", seed=SEED, instructions=200)
        stream = bundle.compiled_streams(WatchdogConfig.disabled()).measured
        moved = stream.with_core(2)
        assert moved.words is None
        assert moved.uops == stream.uops
        assert moved.__dict__["_tc_packed"] is False
