"""Reusable dynamic-trace bundles.

Workload generation is independent of the Watchdog configuration: the
synthetic generator picks instructions, addresses and lock locations from the
benchmark profile and the seed alone.  The old sweep nevertheless regenerated
the trace for every (benchmark, configuration) cell, which dominated sweep
wall-clock time.  A :class:`TraceBundle` materializes everything one timing
run needs exactly once per (benchmark, seed, instructions) and lets the
simulator replay it under any number of configurations with bit-identical
results.

A bundle is a tuple of replay windows (:class:`SampleSegment`): a warm-up
stream, the working set at the warm-up/measure boundary and a measured
stream.  An unsampled bundle is the one-window case; a §9.1-sampled bundle
holds one window per sample.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.sim.sampling import SamplingConfig
from repro.sim.trace import TraceTokens
from repro.workloads.profiles import BenchmarkProfile, profile_by_name
from repro.workloads.synthetic import SyntheticWorkload

#: Instance attribute holding the lazily-built compiled-stream cache.  It
#: lives outside the dataclass fields: equality and pickling of a bundle are
#: defined by its trace content alone.  Bundles are unhashable: their token
#: columns and working-set snapshots are mutable arrays.
_STREAM_CACHE_ATTR = "_cc_streams"


#: Largest horizon a bundle may materialize *unsampled* — whether because no
#: sampling schedule was requested at all, or because the sweep engine runs a
#: cell unsampled whose §9.1 schedule measures everything or nothing (the
#: right behaviour at test scale, a silent catastrophe at paper scale: the
#: whole 100M-instruction horizon materialized as token rows).  Past this
#: bound both cases are errors pointing at a horizon-fitted schedule.
MAX_NORMALIZED_UNSAMPLED_INSTRUCTIONS = 4_000_000


def default_warmup_instructions(instructions: int) -> int:
    """Warm-up window length used when the caller does not choose one.

    A quarter of the measured window (with a floor) mirrors the
    warm-up/measure structure of the paper's §9.1 sampling methodology at the
    reproduction's reduced scale.
    """
    return max(instructions // 4, 1_000)


@dataclass
class WorkingSetSnapshot:
    """The live working set of a workload at one point in its generation.

    Captures what the working-set warm-up
    (:func:`repro.sim.compiled.warm_working_set`) needs as per-object line
    ranges, so the warm-up can be replayed for each configuration without
    keeping (or re-running) the workload generator itself:

    * ``ranges`` — flat ``[start, end)`` pairs, one per live heap object in
      allocation order (``start`` is the object's base rounded down to its
      64-byte line), then one for the hot global span.  The data lines of a
      pair are ``range(start, end, 64)``; adjacent objects that share a line
      each list it.
    * ``locks`` — the lock location of every live object, in the same
      order, then the global lock.

    Both are ``array("q")`` columns: a snapshot stores two ints per object
    rather than one per line.  They are shared, not copied, by every
    :class:`~repro.sim.compiled.WorkingSetArrays` built from the snapshot,
    so nothing may mutate them; being mutable, a snapshot is not hashable.
    """

    ranges: array
    locks: array


@dataclass(frozen=True)
class SampleSegment:
    """One replay window: the portion of the stream one timing run takes.

    The warm-up stream (empty without a warm-up window), the working set
    frozen at the warm-up/measure boundary, and the measured stream.  Under
    §9.1 sampling each window is one sampling period's replayable portion:
    its fast-forward window was applied *functionally* at generation time
    (the workload generator advanced through it, no trace is kept).
    """

    warmup: TraceTokens
    measured: TraceTokens
    working_set: WorkingSetSnapshot


@dataclass(frozen=True)
class TraceBundle:
    """One benchmark's dynamic trace, generated once and replayed many times.

    ``samples`` holds the replay windows in stream order: one for an
    unsampled bundle, one per §9.1 sample otherwise.
    """

    benchmark: str
    seed: int
    instructions: int
    samples: Tuple[SampleSegment, ...]

    @classmethod
    def generate(cls, profile: Union[str, BenchmarkProfile], seed: int,
                 instructions: int,
                 warmup_instructions: Optional[int] = None,
                 sampling: Optional[SamplingConfig] = None) -> "TraceBundle":
        """Generate one benchmark's replay windows.

        Unsampled, the bundle is one window: the first
        ``warmup_instructions`` (default:
        :func:`default_warmup_instructions`) are materialized as the warm-up
        stream, the working set is snapshotted at the warm-up/measure
        boundary, and the measured ``instructions`` continue the same
        generator state — so replaying the bundle is indistinguishable from
        regenerating the workload per configuration.

        With ``sampling``, the ``instructions``-long dynamic stream is
        instead segmented into the schedule's skip/warm-up/measure windows:
        the bundle retains every segment of
        :meth:`repro.workloads.streaming.SampleStream.segments`.  A schedule
        that measures everything (no fast-forward, no warm-up) or nothing
        (the trace ends inside the first fast-forward window) is a
        :class:`ConfigurationError`; running such a cell unsampled is the
        sweep engine's decision, not the bundle's.
        """
        if isinstance(profile, str):
            profile = profile_by_name(profile)
        if sampling is not None:
            if warmup_instructions is not None:
                # The schedule's own warm-up windows define cache priming;
                # accepting both would silently ignore one of them.
                raise ConfigurationError(
                    "warmup_instructions cannot be combined with a sampling "
                    "schedule: the schedule's warm-up windows apply")
            from repro.workloads.streaming import SampleStream

            samples = tuple(SampleStream(profile, seed, instructions,
                                         sampling).segments())
            return cls(benchmark=profile.name, seed=seed,
                       instructions=instructions, samples=samples)
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
        warmup = workload.trace(warmup_instructions)
        snapshot = workload.snapshot_working_set()
        measured = workload.trace(instructions)
        return cls(benchmark=profile.name, seed=seed, instructions=instructions,
                   samples=(SampleSegment(warmup=warmup, measured=measured,
                                          working_set=snapshot),))

    @property
    def measured_instructions(self) -> int:
        """Dynamic instructions the timing model actually replays."""
        return sum(len(sample.measured) for sample in self.samples)

    def __len__(self) -> int:
        return self.measured_instructions

    # -- compiled-stream cache ----------------------------------------------------
    def compiled_streams(self, config, timecore=True):
        """The compiled replay artifacts of a one-window bundle.

        Shorthand for ``compiled_sample_streams(0, ...)`` on a one-window
        bundle (every unsampled one); a bundle of several §9.1 samples has
        no whole-bundle streams, and compiling just its first sample would
        silently time a fraction of it.
        """
        if len(self.samples) != 1:
            raise ConfigurationError(
                f"bundle has {len(self.samples)} replay windows, not one; "
                f"use compiled_sample_streams(index, ...) per sample")
        return self.compiled_sample_streams(0, config, timecore)

    def compiled_sample_streams(self, index: int, config, timecore=True):
        """Compiled replay artifacts for replay window ``index``.

        Compilation is cached per window and *per configuration-equivalence
        class* (see :func:`repro.sim.compiled.stream_class_key`): sweep cells
        whose configurations inject the same µops — e.g. with and without
        the lock location cache — share one packed stream, one warm-up
        access sequence and one working-set array set.  The traces are
        already token columns, shared by every class.  ``timecore`` is the
        run's kernel knob (:class:`~repro.sim.simulator.Simulator`'s): the
        compiler runs the timing kernel's ``compile_run`` when it is on and
        the kernel loads, its Python loops otherwise, and that decision is
        part of the cache key.

        Returns a :class:`repro.sim.compiled.BundleStreams`.
        """
        if not 0 <= index < len(self.samples):
            raise IndexError(
                f"sample index {index} out of range: bundle has "
                f"{len(self.samples)} samples")
        from repro.native import _timecore
        from repro.sim.compiled import (
            BundleStreams,
            StreamCompiler,
            stream_class_key,
        )

        lib = _timecore.load() if timecore else None
        streams = self.__dict__.get(_STREAM_CACHE_ATTR)
        if streams is None:
            streams = {}
            object.__setattr__(self, _STREAM_CACHE_ATTR, streams)
        key = (stream_class_key(config), index, lib is not None)
        cached = streams.get(key)
        if cached is not None:
            return cached

        segment = self.samples[index]
        compiler = StreamCompiler(config, lib)
        built = BundleStreams(
            measured=compiler.compile_measured(segment.measured),
            warm=compiler.compile_warm(segment.warmup)
            if segment.warmup else None,
            working_set=compiler.working_set_arrays(segment.working_set),
        )
        streams[key] = built
        return built

    def footprint_ops(self) -> int:
        """The bundle's pinned memory, in dynamic-op equivalents.

        What the engine's per-process bundle memo budgets against: every
        window's token streams and working-set snapshot, and — crucially —
        the lazily-built compiled-stream cache this instance currently pins,
        which for a compiled replay dwarfs the traces themselves.
        """
        ops = 0
        for sample in self.samples:
            ops += len(sample.measured) + len(sample.warmup) \
                + len(sample.working_set.ranges) \
                + len(sample.working_set.locks)
        streams = self.__dict__.get(_STREAM_CACHE_ATTR)
        if streams:
            for built in streams.values():
                measured = built.measured
                # words + lat_template run per µop; mem_pos/mem_addr/mem_spec
                # run per memory access.
                ops += 2 * len(measured) + 3 * len(measured.mem_pos)
                if built.warm is not None:
                    # addrs + specs.
                    ops += 2 * len(built.warm)
                # built.working_set holds the snapshot's own columns,
                # counted above; the install columns are per run.
        return ops

    def __getstate__(self):
        """Pickle only the trace content, never the compiled cache."""
        return {key: value for key, value in self.__dict__.items()
                if key != _STREAM_CACHE_ATTR}

    def __setstate__(self, state):
        self.__dict__.update(state)
