"""Sampled generation: the §9.1 windows walk, one sample at a time.

:class:`SampleStream` walks the schedule's skip/warm-up/measure windows over
one continuous workload and *yields* each
:class:`~repro.workloads.bundle.SampleSegment` as it is generated.  It is the
only sampled generator: the sweep engine's sampled executor generates →
compiles → simulates → aggregates → releases one sample at a time, so peak
memory is one sample's raw traces plus its compiled artifacts, regardless of
horizon — which is what makes billion-instruction (``*-1b``) horizons run in
flat memory.  A retained sampled :class:`~repro.workloads.bundle.TraceBundle`
is simply ``tuple(stream.segments())``.

A schedule that measures everything or nothing over the horizon has no
samples to walk and is rejected here; whether such a cell runs unsampled
instead is the sweep engine's decision
(:func:`repro.sim.engine.execute_job`).

Replay-on-demand (:meth:`SampleStream.segment`) regenerates any single
sample bit-identically from the state core alone: a fresh workload
fast-forwards functionally to the sample's warm-up window start and re-emits
the warm-up and measure windows.  Because ``fast_forward`` is pinned
bit-identical to emit-and-discard (the golden fast-forward tests), the
regenerated segment is byte-for-byte the one the continuous walk produced —
the debugging path for "what did sample 73 of that 1B run contain?".
"""

from __future__ import annotations

from typing import Iterator, List, Tuple, Union

from repro.errors import ConfigurationError
from repro.sim.sampling import SamplingConfig, SamplingSchedule
from repro.sim.trace import TraceTokens
from repro.workloads.bundle import SampleSegment, TraceBundle
from repro.workloads.profiles import BenchmarkProfile, profile_by_name
from repro.workloads.synthetic import SyntheticWorkload


class SampleStream:
    """One benchmark's §9.1 samples, generated and surrendered one at a time.

    The stream keeps no reference to a yielded segment: the caller owns it,
    and a retained bundle is just the caller that keeps them all.
    """

    def __init__(self, profile: Union[str, BenchmarkProfile], seed: int,
                 instructions: int, sampling: SamplingConfig):
        if isinstance(profile, str):
            profile = profile_by_name(profile)
        self.profile = profile
        self.seed = seed
        self.instructions = instructions
        self.sampling = sampling.validate()
        self.schedule = SamplingSchedule(self.sampling)
        if not self.sampling.samples_horizon(instructions):
            raise ConfigurationError(
                f"sampling schedule measures "
                f"{'everything' if self.sampling.degenerate else 'nothing'} "
                f"over {instructions} instructions; sampled generation "
                f"requires a schedule that genuinely samples the horizon "
                f"(e.g. SamplingConfig.paper_scaled())")

    @property
    def benchmark(self) -> str:
        return self.profile.name

    def __len__(self) -> int:
        """Number of sample segments the stream will yield."""
        return sum(1 for _, _, phase in self._windows()
                   if phase == SamplingSchedule.MEASURE)

    def _windows(self) -> List[Tuple[int, int, str]]:
        return self.schedule.windows(self.instructions)

    def segments(self) -> Iterator[SampleSegment]:
        """Walk the horizon once, yielding each sample segment in order.

        One workload walks the whole horizon, so the dynamic stream is
        identical to an unsampled run of the same length; the schedule only
        decides each window's fate.  Skip windows advance the workload
        functionally through the state-evolution core
        (:meth:`SyntheticWorkload.fast_forward`: allocator state, working set
        and locality cursors move, nothing is materialized), warm-up windows
        are emitted and held pending, and each measure window is emitted with
        the working set frozen at its warm-up/measure boundary.  An event
        split by a window boundary stays pending inside the workload, so the
        concatenation of all windows is exactly the continuous stream.  The
        caller owns every yielded segment outright — dropping it frees the
        sample.
        """
        workload = SyntheticWorkload(self.profile, seed=self.seed)
        pending_warm = TraceTokens()
        for start, end, phase in self._windows():
            length = end - start
            if phase == SamplingSchedule.SKIP:
                workload.fast_forward(length)
                pending_warm = TraceTokens()
            elif phase == SamplingSchedule.WARMUP:
                pending_warm = workload.emit(length)
            else:
                snapshot = workload.snapshot_working_set()
                measured = workload.emit(length)
                yield SampleSegment(warmup=pending_warm, measured=measured,
                                    working_set=snapshot)
                pending_warm = TraceTokens()

    def segment(self, index: int) -> SampleSegment:
        """Regenerate sample ``index`` alone, bit-identically (replay-on-demand).

        A fresh workload fast-forwards through everything before the sample's
        warm-up window — skip, warm-up and measure windows of earlier periods
        alike, all functionally — then emits just this sample's warm-up and
        measure windows.  ``fast_forward`` ≡ emit-and-discard (golden-pinned),
        so the RNG stream, allocator state and cursors arrive at the window
        boundary exactly as the continuous walk's did.
        """
        windows = self._windows()
        measure_positions = [i for i, (_, _, phase) in enumerate(windows)
                             if phase == SamplingSchedule.MEASURE]
        if not 0 <= index < len(measure_positions):
            raise IndexError(
                f"sample index {index} out of range: schedule yields "
                f"{len(measure_positions)} samples over "
                f"{self.instructions} instructions")
        position = measure_positions[index]
        measure_start, measure_end, _ = windows[position]
        # The warm-up is the immediately preceding window iff it is a WARMUP:
        # the segments() walk resets its pending warm-up on every skip
        # window, and a warm-up window is always directly followed by its
        # measure window (non-degenerate schedules interpose a skip between
        # periods).
        warm_start = measure_start
        if position > 0 and windows[position - 1][2] == SamplingSchedule.WARMUP:
            warm_start = windows[position - 1][0]
        workload = SyntheticWorkload(self.profile, seed=self.seed)
        workload.fast_forward(warm_start)
        warmup = workload.emit(measure_start - warm_start)
        snapshot = workload.snapshot_working_set()
        measured = workload.emit(measure_end - measure_start)
        return SampleSegment(warmup=warmup, measured=measured,
                             working_set=snapshot)

    def segment_bundle(self, segment: SampleSegment) -> TraceBundle:
        """Wrap one streamed segment as a one-window :class:`TraceBundle`.

        The transient bundle is what lets streaming reuse the per-sample
        replay machinery (compiled-stream caching across a job's
        configurations included) unchanged; it and every compiled artifact it
        accumulates are dropped when the caller releases the segment.
        """
        return TraceBundle(benchmark=self.profile.name, seed=self.seed,
                           instructions=self.instructions, samples=(segment,))
