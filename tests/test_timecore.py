"""Lifecycle and golden-equality tests for the native timing core.

The C kernel (:mod:`repro.native._timecore`) is strictly optional: these
tests pin down the loader lifecycle — the ``REPRO_TIMECORE=0`` kill switch,
the refusal to hand out a kernel whose self-test fails, and on-disk artifact
reuse — the golden contract that kernel-on and kernel-off produce
bit-identical ``TimingResult``/``HierarchyStats`` across every benchmark
profile and Table 2 configuration, sampled and unsampled, and the single
hierarchy state every entry point shares.
"""

import random

import pytest

from repro.core.config import WatchdogConfig
from repro.memory.hierarchy import PortKind
from repro.native import _timecore, build
from repro.pipeline.core import OutOfOrderCore
from repro.sim.compiled import warm_working_set
from repro.sim.results import CellResult
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import Simulator
from repro.workloads.bundle import TraceBundle
from repro.workloads.profiles import benchmark_names

from tests.helpers import hierarchy_access, run_trace
from tests.test_compiled_pipeline import CONFIGURATIONS, INSTRUCTIONS, SEED

KERNEL_AVAILABLE = _timecore.load() is not None

needs_kernel = pytest.mark.skipif(not KERNEL_AVAILABLE,
                                  reason="native timing core unavailable")


@pytest.fixture
def reload_kernel():
    """Drop the process-wide load decision around a test, restoring after.

    ``build._LOADED`` memoizes one decision per kernel per process; tests
    that change the environment or break the self-test must clear it to
    force a fresh load, and clear it again afterwards so later tests get
    the normal kernel back.
    """
    build._LOADED.pop("timecore", None)
    yield
    build._LOADED.pop("timecore", None)


class TestLoaderLifecycle:
    def test_kill_switch_forces_python_fallback(self, monkeypatch,
                                                reload_kernel):
        monkeypatch.setenv("REPRO_TIMECORE", "0")
        assert _timecore.load() is None
        # The pipeline still runs (pure Python), end to end.
        bundle = TraceBundle.generate("gzip", seed=3, instructions=400)
        config = CONFIGURATIONS["isa-assisted"]
        outcome = Simulator().run_bundle(bundle, config)
        assert outcome.timing.total_uops > 0

    def test_failed_self_test_refuses_kernel(self, monkeypatch,
                                             reload_kernel):
        monkeypatch.delenv("REPRO_TIMECORE", raising=False)
        monkeypatch.setattr(_timecore, "_self_test", lambda lib: False)
        assert _timecore.load() is None

    def test_crashing_self_test_refuses_kernel(self, monkeypatch,
                                               reload_kernel):
        def boom(lib):
            raise RuntimeError("corrupted artifact")

        monkeypatch.delenv("REPRO_TIMECORE", raising=False)
        monkeypatch.setattr(_timecore, "_self_test", boom)
        assert _timecore.load() is None

    @needs_kernel
    def test_cached_artifact_is_reused(self, tmp_path, monkeypatch,
                                       reload_kernel):
        monkeypatch.delenv("REPRO_TIMECORE", raising=False)
        monkeypatch.setenv("REPRO_TIMECORE_DIR", str(tmp_path))
        assert _timecore.load() is not None
        artifacts = list(tmp_path.glob("timecore-*.so"))
        assert len(artifacts) == 1
        # A second load (fresh decision, same directory) must bind the
        # existing artifact without invoking the compiler.
        build._LOADED.pop("timecore", None)

        def no_compile(source, so_path):
            raise AssertionError("compile_source called despite cached .so")

        monkeypatch.setattr(build, "compile_source", no_compile)
        assert _timecore.load() is not None

    @needs_kernel
    def test_load_decision_is_memoized(self, reload_kernel):
        first = _timecore.load()
        assert _timecore.load() is first


class TestSimulatorKnob:
    @needs_kernel
    def test_timecore_false_forces_python_loops(self, monkeypatch):
        bundle = TraceBundle.generate("mcf", seed=5, instructions=400)
        config = CONFIGURATIONS["conservative"]
        # Settle the load decision first: its self-test runs the kernel.
        kernel = _timecore.load()
        loads = []
        installs = []
        compiles = []
        load = _timecore.load
        install = _timecore.install_working_set
        compile_tokens = _timecore.compile_tokens

        def counting_load(*args, **kwargs):
            loads.append(1)
            return load(*args, **kwargs)

        def counting_install(*args, **kwargs):
            installs.append(1)
            return install(*args, **kwargs)

        def counting_compile(*args, **kwargs):
            compiles.append(1)
            return compile_tokens(*args, **kwargs)

        monkeypatch.setattr(_timecore, "load", counting_load)
        monkeypatch.setattr(_timecore, "install_working_set",
                            counting_install)
        monkeypatch.setattr(_timecore, "compile_tokens", counting_compile)
        forced_off = Simulator(timecore=False).run_bundle(bundle, config)
        assert not loads and not installs and not compiles
        native = Simulator().run_bundle(bundle, config)
        assert loads
        assert len(installs) == (1 if kernel is not None else 0)
        # The warm and the measured stream, each in the kernel.
        assert len(compiles) == (2 if kernel is not None else 0)
        assert forced_off.timing == native.timing
        # The kernel is loaded now and the bundle's native streams are
        # cached; a forced-off run still compiles its own streams and
        # installs its working set in Python.
        installs.clear()
        compiles.clear()
        again = Simulator(timecore=False).run_bundle(bundle, config)
        assert not installs and not compiles
        assert again.timing == native.timing
        trace = list(bundle.samples[0].measured)
        run_trace(Simulator(timecore=False), trace, config)
        assert not compiles
        run_trace(Simulator(), trace, config)
        assert len(compiles) == (1 if kernel is not None else 0)

    def test_knob_reaches_the_core(self):
        from repro.pipeline.core import OutOfOrderCore

        assert OutOfOrderCore(timecore=False).hierarchy.timecore is False
        core = OutOfOrderCore()
        assert core.hierarchy.timecore is True
        # Stored once: the core reads its hierarchy's flag.
        assert "timecore" not in vars(core)


@needs_kernel
class TestGoldenEquality:
    """Kernel on vs off: every profile x every Table 2 configuration."""

    @pytest.mark.parametrize("profile_name", benchmark_names())
    def test_profile_matches_python_under_all_configurations(
            self, profile_name):
        bundle = TraceBundle.generate(profile_name, seed=SEED,
                                      instructions=INSTRUCTIONS)
        kernel_sim = Simulator(timecore=True)
        python_sim = Simulator(timecore=False)
        for label, config in CONFIGURATIONS.items():
            kernel = kernel_sim.run_bundle(bundle, config)
            python = python_sim.run_bundle(bundle, config)
            assert kernel.timing == python.timing, \
                f"{profile_name}/{label}: timing diverged"
            assert CellResult.from_outcome(kernel, label=label) == \
                CellResult.from_outcome(python, label=label), \
                f"{profile_name}/{label}: statistics diverged"

    @pytest.mark.parametrize("profile_name", ("mcf-long", "gcc-long"))
    def test_sampled_long_profile_matches_python(self, profile_name):
        sampling = SamplingConfig(fast_forward=313, warmup=328, sample=356)
        bundle = TraceBundle.generate(profile_name, seed=SEED,
                                      instructions=4_000, sampling=sampling)
        assert bundle.samples, "schedule must genuinely sample at this scale"
        for label in ("baseline", "isa-assisted", "ideal-shadow"):
            config = CONFIGURATIONS[label]
            kernel = Simulator(timecore=True).run_bundle(bundle, config)
            python = Simulator(timecore=False).run_bundle(bundle, config)
            assert kernel.timing == python.timing, \
                f"{profile_name}/{label}: sampled timing diverged"
            assert CellResult.from_outcome(kernel, label=label) == \
                CellResult.from_outcome(python, label=label), \
                f"{profile_name}/{label}: sampled statistics diverged"

    def test_hierarchy_batch_state_and_stats_match(self):
        """Direct batch-level check including full LRU state and stats."""
        import random

        from repro.pipeline.core import OutOfOrderCore

        rng = random.Random(99)
        addrs, specs, positions = [], [], []
        for _ in range(3_000):
            addrs.append(rng.randrange(1 << 22))
            specs.append(rng.randrange(3) | rng.randrange(2) << 2 | 8)
            positions.append(len(positions))
        config = CONFIGURATIONS["isa-assisted"]
        kernel_h = OutOfOrderCore(watchdog=config, timecore=True).hierarchy
        python_h = OutOfOrderCore(watchdog=config, timecore=False).hierarchy
        for hierarchy in (kernel_h, python_h):
            hierarchy.warm_batch(addrs[:500], 0)
            lats = [0] * len(addrs)
            hierarchy.access_batch(addrs, specs, positions, lats)
        assert kernel_h.stats == python_h.stats
        assert kernel_h.stats.accesses == python_h.stats.accesses
        assert kernel_h.stats.total_latency == python_h.stats.total_latency
        assert _timecore._same_hierarchy(kernel_h, python_h)


class TestSingleHierarchyState:
    """The structures' arrays are the only hierarchy state.

    One hierarchy goes through every entry point, interleaved, twice over:
    with the kernel on and with it off.  After every step both must hold
    equal arrays, counters and stats.
    """

    PORTS = (PortKind.DATA, PortKind.LOCK, PortKind.SHADOW)

    @staticmethod
    def _plan(rng, length):
        addrs, specs = [], []
        for _ in range(length):
            region = rng.randrange(3)
            if region == 0:
                a = rng.randrange(1 << 16)
            elif region == 1:
                a = rng.randrange(1 << 28)
            else:
                a = rng.randrange(1 << 12) * 64 + rng.randrange(8) * (1 << 20)
            addrs.append(a)
            specs.append(rng.randrange(3) | rng.randrange(2) << 2
                         | rng.randrange(2) << 3)
        return addrs, specs

    def _per_access(self, hierarchy, addrs, specs, positions, lats):
        for a, spec, pos in zip(addrs, specs, positions):
            lat = hierarchy_access(hierarchy, a, is_write=bool(spec & 4),
                                   port=self.PORTS[spec & 3])
            if spec & 8:
                lats[pos] = lat

    def _drive(self, hierarchies, step, *args):
        """Run one step on (kernel, python) and compare them."""
        kernel_h, python_h = hierarchies
        results = []
        for hierarchy in hierarchies:
            lats = {}
            if step == "warm_working_set":
                warm_working_set(hierarchy, *args)
            elif step == "access":
                addrs, specs = args
                self._per_access(hierarchy, addrs, specs,
                                 range(len(addrs)), lats)
            elif step == "warm_batch":
                addrs, specs = args
                hierarchy.warm_batch(addrs, specs)
                hierarchy.reset_stats()
            else:
                addrs, specs, positions = args
                out = [0] * (max(positions, default=-1) + 1)
                hierarchy.access_batch(addrs, specs, positions, out)
                lats = {pos: out[pos] for pos, spec
                        in zip(positions, specs) if spec & 8}
            results.append(lats)
        assert results[0] == results[1], step
        assert _timecore._same_hierarchy(kernel_h, python_h), step

    @pytest.mark.parametrize("config", (
        WatchdogConfig.isa_assisted_uaf(),
        WatchdogConfig.idealized_shadow().with_(lock_cache_enabled=False),
        WatchdogConfig.idealized_shadow()),
        ids=("lock-cache", "ideal-shadow", "lock-cache+ideal-shadow"))
    def test_every_entry_point_shares_one_state(self, config):
        rng = random.Random(4242)
        streams = TraceBundle.generate(
            "mcf", seed=SEED, instructions=INSTRUCTIONS).compiled_streams(
                config)
        measured = streams.measured
        hierarchies = [OutOfOrderCore(watchdog=config, timecore=flag).hierarchy
                       for flag in (True, False)]
        drive = self._drive
        drive(hierarchies, "warm_working_set", streams.working_set, config)
        drive(hierarchies, "warm_batch", streams.warm.addrs,
              streams.warm.specs)
        drive(hierarchies, "warm_batch", *self._plan(rng, 400))
        drive(hierarchies, "warm_batch", self._plan(rng, 400)[0], 0)
        half = len(measured.mem_addr) // 2
        drive(hierarchies, "access_batch", measured.mem_addr[:half],
              measured.mem_spec[:half], measured.mem_pos[:half])
        drive(hierarchies, "access", *self._plan(rng, 300))
        drive(hierarchies, "access_batch", measured.mem_addr[half:],
              measured.mem_spec[half:], measured.mem_pos[half:])
        addrs, specs = self._plan(rng, 1_500)
        drive(hierarchies, "access_batch", addrs, specs,
              list(range(len(addrs))))
        # A second install lands on sets holding dirty lines.
        drive(hierarchies, "warm_working_set", streams.working_set, config)
        drive(hierarchies, "access", *self._plan(rng, 300))
        assert sum(hierarchies[0].stats.accesses.values()) > 0

    @pytest.mark.parametrize("timecore", (
        pytest.param(True, marks=needs_kernel), False),
        ids=("kernel", "python"))
    def test_access_is_a_one_element_batch(self, timecore):
        config = WatchdogConfig.isa_assisted_uaf()
        single, batched = (
            OutOfOrderCore(watchdog=config, timecore=timecore).hierarchy
            for _ in range(2))
        addrs, specs = self._plan(random.Random(77), 2_000)
        specs = [spec | 8 for spec in specs]  # access() reports every latency
        positions = list(range(len(addrs)))
        lats = {}
        self._per_access(single, addrs, specs, positions, lats)
        out = [0] * len(addrs)
        batched.access_batch(addrs, specs, positions, out)
        assert lats == dict(enumerate(out))
        assert single.stats == batched.stats
        assert _timecore._same_hierarchy(single, batched)

    @needs_kernel
    def test_access_runs_on_the_kernel_when_loaded(self, monkeypatch):
        batches = []
        run_batch = _timecore.run_batch

        def counting_run_batch(lib, hierarchy, *args):
            batches.append(hierarchy)
            return run_batch(lib, hierarchy, *args)

        monkeypatch.setattr(_timecore, "run_batch", counting_run_batch)
        config = WatchdogConfig.isa_assisted_uaf()
        native = OutOfOrderCore(watchdog=config).hierarchy
        python = OutOfOrderCore(watchdog=config, timecore=False).hierarchy
        for hierarchy in (native, python):
            hierarchy_access(hierarchy, 0x1000)
            hierarchy_access(hierarchy, 0x5000, is_write=True,
                             port=PortKind.LOCK)
        assert len(batches) == 2
        assert all(hierarchy is native for hierarchy in batches)

    def test_same_cell_twice_in_a_row_is_identical(self):
        config = CONFIGURATIONS["isa-assisted"]
        bundle = TraceBundle.generate("equake", seed=SEED, instructions=400)
        simulator = Simulator()
        first = simulator.run_bundle(bundle, config)
        second = simulator.run_bundle(bundle, config)
        assert first.timing == second.timing
