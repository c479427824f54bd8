"""Reusable dynamic-trace bundles.

Workload generation is independent of the Watchdog configuration: the
synthetic generator picks instructions, addresses and lock locations from the
benchmark profile and the seed alone.  The old sweep nevertheless regenerated
the trace for every (benchmark, configuration) cell, which dominated sweep
wall-clock time.  A :class:`TraceBundle` materializes everything one timing
run needs — the warm-up stream, the measured stream and a snapshot of the
workload's live working set — exactly once per (benchmark, seed,
instructions) and lets the simulator replay it under any number of
configurations with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.sim.sampling import SamplingConfig
from repro.sim.trace import DynamicOp
from repro.workloads.profiles import BenchmarkProfile, profile_by_name
from repro.workloads.synthetic import SyntheticWorkload

#: Instance attributes holding the lazily-built compiled-stream caches.
#: They live outside the dataclass fields: equality, hashing and pickling of
#: a bundle are defined by its trace content alone.
_TOKEN_CACHE_ATTR = "_cc_tokens"
_STREAM_CACHE_ATTR = "_cc_streams"


#: Largest horizon a bundle may materialize *unsampled* — whether because no
#: sampling schedule was requested at all, or because a requested §9.1
#: schedule measures nothing and would normalize to the unsampled layout
#: (the right behaviour at test scale, a silent catastrophe at paper scale:
#: the whole 100M-instruction horizon materialized as DynamicOps).  Past
#: this bound both cases are errors pointing at a horizon-fitted schedule.
MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS = 4_000_000


def default_warmup_instructions(instructions: int) -> int:
    """Warm-up window length used when the caller does not choose one.

    A quarter of the measured window (with a floor) mirrors the
    warm-up/measure structure of the paper's §9.1 sampling methodology at the
    reproduction's reduced scale.
    """
    return max(instructions // 4, 1_000)


@dataclass(frozen=True)
class WorkingSetSnapshot:
    """The live working set of a workload at one point in its generation.

    Captures what the working-set warm-up
    (:func:`repro.sim.compiled.working_set_arrays`) needs — the 64-byte
    data lines and the lock locations of every live object — so the warm-up
    can be replayed for each configuration without keeping (or re-running)
    the workload generator itself.
    """

    lines: Tuple[int, ...]
    locks: Tuple[int, ...]

    def working_set_lines(self) -> Iterator[int]:
        return iter(self.lines)

    def lock_locations(self) -> Iterator[int]:
        return iter(self.locks)


#: Anything the simulator's working-set warm-up can consume.
WorkingSet = Union[SyntheticWorkload, WorkingSetSnapshot]


@dataclass(frozen=True)
class SampleSegment:
    """One §9.1 sampling period's replayable portion.

    The fast-forward window is applied *functionally* at generation time (the
    workload generator advances through it, no trace is kept); what remains
    is the warm-up stream, the working set frozen at the warm-up/measure
    boundary, and the measured stream — exactly the inputs one unsampled
    timing run takes, so each sample replays through the unchanged
    compile-and-schedule machinery.
    """

    warmup: Tuple[DynamicOp, ...]
    measured: Tuple[DynamicOp, ...]
    working_set: WorkingSetSnapshot


@dataclass(frozen=True)
class TraceBundle:
    """One benchmark's dynamic trace, generated once and replayed many times."""

    benchmark: str
    seed: int
    instructions: int
    warmup_instructions: int
    #: The untimed stream that primes the cache hierarchy.
    warmup: Tuple[DynamicOp, ...]
    #: The measured stream the timing model replays.
    measured: Tuple[DynamicOp, ...]
    #: Live working set at the warm-up/measure boundary (the last sample's,
    #: for a sampled bundle).
    working_set: WorkingSetSnapshot
    #: The §9.1 schedule this bundle was segmented under, or ``None`` for a
    #: conventional (fully measured) bundle.
    sampling: Optional[SamplingConfig] = None
    #: Per-period replay segments; empty unless ``sampling`` is set.
    samples: Tuple[SampleSegment, ...] = field(default=())

    @classmethod
    def generate(cls, profile: Union[str, BenchmarkProfile], seed: int,
                 instructions: int,
                 warmup_instructions: Optional[int] = None,
                 sampling: Optional[SamplingConfig] = None) -> "TraceBundle":
        """Generate the warm-up and measured streams for one benchmark.

        The generation order matches a direct :meth:`Simulator.run_profile`
        run: the warm-up portion is materialized first, the working set is
        snapshotted at the warm-up/measure boundary, and the measured portion
        continues the same generator state — so replaying the bundle is
        indistinguishable from regenerating the workload per configuration.

        With ``sampling``, the ``instructions``-long dynamic stream is instead
        segmented into the schedule's skip/warm-up/measure windows: the
        bundle retains every segment of
        :meth:`repro.workloads.streaming.SampleStream.segments`.  A schedule
        that would measure everything (no fast-forward, no warm-up) or
        nothing (the trace ends inside the first fast-forward window) is
        normalized to the unsampled layout, so degenerate schedules
        reproduce the unsampled results bit-for-bit.
        """
        if isinstance(profile, str):
            profile = profile_by_name(profile)
        if sampling is not None:
            if warmup_instructions is not None:
                # The schedule's own warm-up windows define cache priming;
                # accepting both would silently ignore one of them (and which
                # one would depend on whether the schedule normalizes below).
                raise ConfigurationError(
                    "warmup_instructions cannot be combined with a sampling "
                    "schedule: the schedule's warm-up windows apply")
            if sampling.validate().samples_horizon(instructions):
                from repro.workloads.streaming import SampleStream

                samples = tuple(SampleStream(profile, seed, instructions,
                                             sampling).segments())
                return cls(benchmark=profile.name, seed=seed,
                           instructions=instructions, warmup_instructions=0,
                           warmup=(), measured=(),
                           working_set=samples[-1].working_set,
                           sampling=sampling, samples=samples)
            if instructions > MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS:
                raise ConfigurationError(
                    f"sampling schedule measures "
                    f"{'everything' if sampling.degenerate else 'nothing'} "
                    f"over {instructions} instructions and would fall "
                    f"back to materializing the whole horizon unsampled; "
                    f"choose a schedule whose period fits the horizon "
                    f"(e.g. SamplingConfig.paper_scaled())")
        if instructions > MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS:
            raise ConfigurationError(
                f"an unsampled bundle would materialize all {instructions} "
                f"instructions as dynamic ops; horizons past "
                f"{MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS} require a §9.1 "
                f"sampling schedule (e.g. --sampling paper-scaled / "
                f"SamplingConfig.paper_scaled())")
        if warmup_instructions is None:
            warmup_instructions = default_warmup_instructions(instructions)
        workload = SyntheticWorkload(profile, seed=seed)
        warmup = tuple(workload.trace(warmup_instructions)) \
            if warmup_instructions else ()
        snapshot = workload.snapshot_working_set()
        measured = tuple(workload.trace(instructions))
        return cls(benchmark=profile.name, seed=seed, instructions=instructions,
                   warmup_instructions=warmup_instructions, warmup=warmup,
                   measured=measured, working_set=snapshot)

    @property
    def measured_instructions(self) -> int:
        """Dynamic instructions the timing model actually replays."""
        if self.samples:
            return sum(len(sample.measured) for sample in self.samples)
        return len(self.measured)

    def __len__(self) -> int:
        return self.measured_instructions

    # -- compiled-stream cache ----------------------------------------------------
    def compiled_streams(self, config, machine=None):
        """The bundle's compiled replay artifacts for one configuration.

        Compilation is cached *per configuration-equivalence class* (see
        :func:`repro.sim.compiled.stream_class_key`): sweep cells whose
        configurations inject the same µops — e.g. with and without the lock
        location cache — share one packed stream, one warm-up access
        sequence and one working-set array set.  Tokenization (the
        configuration-independent interning of the dynamic traces) happens
        at most once per bundle (per sample, for sampled bundles).

        Returns a :class:`repro.sim.compiled.BundleStreams`.
        """
        return self._compiled(None, config, machine)

    def compiled_sample_streams(self, index: int, config, machine=None):
        """Compiled replay artifacts for one :class:`SampleSegment`."""
        return self._compiled(index, config, machine)

    def _compiled(self, index, config, machine):
        """Compile (warm-up, measured, working set) for one segment.

        ``index`` selects a sample of a sampled bundle; ``None`` selects the
        conventional whole-bundle streams.
        """
        if index is None and self.samples:
            # A sampled bundle's top-level streams are empty; compiling them
            # would "succeed" with a zero-µop result instead of failing.
            raise ConfigurationError(
                "sampled bundle has no whole-bundle streams; use "
                "compiled_sample_streams(index, ...) per sample")
        from repro.pipeline.config import MachineConfig
        from repro.sim.compiled import (
            BundleStreams,
            StreamCompiler,
            stream_class_key,
            tokenize,
        )

        machine = machine or MachineConfig()
        streams = self.__dict__.get(_STREAM_CACHE_ATTR)
        if streams is None:
            streams = {}
            object.__setattr__(self, _STREAM_CACHE_ATTR, streams)
        key = (stream_class_key(config), machine, index)
        cached = streams.get(key)
        if cached is not None:
            return cached

        segment = self if index is None else self.samples[index]
        tokens = self.__dict__.get(_TOKEN_CACHE_ATTR)
        if tokens is None:
            tokens = {}
            object.__setattr__(self, _TOKEN_CACHE_ATTR, tokens)
        segment_tokens = tokens.get(index)
        if segment_tokens is None:
            segment_tokens = tokens[index] = (
                tokenize(segment.measured),
                tokenize(segment.warmup) if segment.warmup else None)
        measured_tokens, warm_tokens = segment_tokens

        compiler = StreamCompiler(config, machine)
        built = BundleStreams(
            measured=compiler.compile_measured(measured_tokens),
            warm=compiler.compile_warm(warm_tokens)
            if warm_tokens is not None else None,
            working_set=compiler.working_set_arrays(segment.working_set),
        )
        streams[key] = built
        return built

    def footprint_ops(self) -> int:
        """The bundle's pinned memory, in dynamic-op equivalents.

        What the engine's per-process bundle memo budgets against: the raw
        trace streams (top-level and per-sample), the working-set snapshots,
        and — crucially — the lazily-built token and compiled-stream caches
        this instance currently pins, which for a compiled replay dwarf the
        traces themselves.
        """
        def _snapshot_ops(snapshot: WorkingSetSnapshot) -> int:
            return len(snapshot.lines) + len(snapshot.locks)

        ops = len(self.measured) + len(self.warmup) \
            + _snapshot_ops(self.working_set)
        for sample in self.samples:
            ops += len(sample.measured) + len(sample.warmup) \
                + _snapshot_ops(sample.working_set)
        tokens = self.__dict__.get(_TOKEN_CACHE_ATTR)
        if tokens:
            for measured_tokens, warm_tokens in tokens.values():
                ops += len(measured_tokens)
                if warm_tokens is not None:
                    ops += len(warm_tokens)
        streams = self.__dict__.get(_STREAM_CACHE_ATTR)
        if streams:
            for built in streams.values():
                measured = built.measured
                # words + lat_template run per µop; mem_pos/mem_addr/mem_spec
                # run per memory access.  len(measured) reads the flat word
                # column without materializing the per-µop tuple fallback.
                ops += 2 * len(measured) + 3 * len(measured.mem_pos)
                # A pinned per-µop tuple list — a tuple-only stream (some
                # template overflowed the packed field widths), or a flat
                # stream whose tuples the Python fallback scheduler
                # materialized — costs ~8 slots per µop on top of the flat
                # columns; budget it, but never *trigger* materialization.
                tuples = measured.__dict__.get("_uop_tuples")
                if tuples is not None:
                    ops += 8 * len(tuples)
                if built.warm is not None:
                    # addrs + specs.
                    ops += 2 * len(built.warm)
                working_set = built.working_set
                ops += len(working_set.shadow) + len(working_set.locks) \
                    + len(working_set.data)
        return ops

    def __getstate__(self):
        """Pickle only the trace content, never the compiled caches."""
        return {key: value for key, value in self.__dict__.items()
                if key not in (_TOKEN_CACHE_ATTR, _STREAM_CACHE_ATTR)}

    def __setstate__(self, state):
        self.__dict__.update(state)
