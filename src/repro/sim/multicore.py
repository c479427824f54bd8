"""Multi-core mix simulation.

Replays N independent compiled µop streams — one per core — against one
shared memory-system backend (L2 + inclusive L3 + lock location cache + L2
prefetcher, see :class:`~repro.memory.hierarchy.SharedMemoryBackend`) while
each core keeps its private L1, L1 prefetcher and TLBs.  This is the
multiprogrammed-mix methodology of the paper's §9.1 evaluation family:
every core runs a *different* benchmark, the cores contend for shared cache
capacity and for lock-location-cache entries, and results are attributed
per core.

Execution model
---------------

A mix run has three phases:

1. **warm** — each core's working set and warm-up trace are installed in
   core order.  Warm-up replays through the shared levels, so later cores'
   working sets evict earlier cores' lines exactly as a shared LRU would;
   statistics are reset after each core's warm-up, leaving all counters
   zero and the hierarchy state warm when measurement starts.
2. **interleaved hierarchy replay** — the cores' packed demand-access
   sequences are replayed round-robin in :data:`EPOCH_ACCESSES`-sized
   epochs.  Because both the Python and the native batch paths reset their
   per-batch TLB memos at batch boundaries (and all other state is carried
   in the hierarchy structures themselves), slicing one core's sequence
   into epochs is bit-identical to replaying it as a single batch — which
   is what pins the one-core golden invariant below.
3. **per-core scheduling** — each core's array scheduler consumes its own
   stream with the load latencies its hierarchy produced.  Scheduling is
   per-core because the cores' pipelines are independent; only the memory
   system is shared.

The mix's cycle count is the *slowest* core's cycles (the mix finishes when
its last member does); µop and miss counters sum across cores, and each
core's :class:`~repro.sim.results.CoreResult` block carries its private
counters plus its own share of the shared-level traffic (from
``HierarchyStats.shared`` — the cache objects themselves accumulate global
totals across all cores).

Golden invariant
----------------

A one-core mix is **bit-identical** to the ordinary single-core compiled
path on the same (benchmark, seed, configuration): same warm sequence, same
hierarchy state transitions (epoch slicing is state-neutral), same
scheduler pass.  The golden tests in ``tests/test_multicore.py`` pin this
for both the native and the pure-Python batch paths.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.core.config import WatchdogConfig
from repro.errors import ConfigurationError
from repro.memory.hierarchy import MemoryHierarchy, SharedMemoryBackend
from repro.pipeline.config import MachineConfig
from repro.pipeline.core import OutOfOrderCore, _derived_hierarchy_config
from repro.sim.results import CoreResult
from repro.sim.simulator import (
    SimulationOutcome,
    Simulator,
    aggregate_outcomes,
)
from repro.workloads.bundle import TraceBundle

#: Demand accesses one core replays before the next core gets a turn.
#: Small enough that the cores' shared-level traffic genuinely interleaves
#: (a 4KB lock cache or an L2 set sees contention at epoch granularity, not
#: whole-benchmark granularity), large enough that per-batch call overhead
#: stays negligible.  The value is a methodology constant, not a tunable:
#: changing it changes mix results (interleaving order is simulated state).
EPOCH_ACCESSES = 2048


class MultiCoreSimulator:
    """Runs a benchmark bundle per core against one shared backend.

    The interleaved replay works on each member's packed access arrays
    (:class:`~repro.sim.compiled.CompiledStream`), the same streams a
    single-core run of that member replays.  It runs in the timing kernel
    when it loads (``REPRO_TIMECORE=0`` disables it), else in the Python
    loops, which are bit-identical.
    """

    def run_mix(self, name: str, bundles: Sequence[TraceBundle],
                config: WatchdogConfig) -> SimulationOutcome:
        """Time one mix: ``bundles[i]`` runs on core ``i``.

        Returns an aggregate :class:`SimulationOutcome` labelled ``name``
        whose ``cores`` tuple holds one :class:`CoreResult` per member.
        """
        if not bundles:
            raise ConfigurationError("a mix needs at least one member bundle")
        for bundle in bundles:
            if len(bundle.samples) != 1:
                raise ConfigurationError(
                    "mix members cannot use §9.1 sampling (sampled windows "
                    "have no cross-core interleaving order)")
        streams = [bundle.compiled_sample_streams(0, config)
                   for bundle in bundles]

        backend = SharedMemoryBackend(_derived_hierarchy_config(
            MachineConfig().hierarchy, config.lock_cache_enabled,
            config.ideal_shadow))
        cores = [OutOfOrderCore(watchdog=config,
                                hierarchy=MemoryHierarchy(shared=backend,
                                                          core_id=index))
                 for index in range(len(bundles))]

        self._warm(cores, streams, config)
        measured = [built.measured for built in streams]
        lats = [stream.lat_template[:] for stream in measured]
        self._replay_interleaved(cores, measured, lats)

        outcomes: List[SimulationOutcome] = []
        blocks: List[CoreResult] = []
        configuration = Simulator._config_name(config)
        for index, (core, stream, bundle) in enumerate(
                zip(cores, measured, bundles)):
            timing = core.schedule_compiled(stream, lats[index])
            shared = core.hierarchy.stats.shared
            # The scheduler read the *global* lock-cache miss counter; the
            # per-core quantity is this core's attributed share.  (On one
            # core the two are equal — part of the golden invariant.)
            timing = dataclasses.replace(
                timing, lock_cache_misses=shared["lock_misses"])
            outcomes.append(SimulationOutcome(
                benchmark=bundle.benchmark, configuration=configuration,
                timing=timing, injection=stream.injection,
                pointer_stats=stream.pointer, pages=stream.pages))
            blocks.append(CoreResult(
                core=index, benchmark=bundle.benchmark,
                cycles=timing.cycles, total_uops=timing.total_uops,
                injected_uops=timing.injected_uops,
                macro_instructions=timing.macro_instructions,
                memory_accesses=timing.memory_accesses,
                l1d_misses=timing.l1d_misses,
                lock_cache_misses=shared["lock_misses"],
                l2_hits=shared["l2_hits"], l2_misses=shared["l2_misses"],
                l3_hits=shared["l3_hits"], l3_misses=shared["l3_misses"],
                lock_evictions=shared["lock_evictions"],
                lock_writebacks=shared["lock_writebacks"]))

        # Counters sum, but the members ran concurrently: the mix is done
        # when its slowest core is.  One core's outcome passes through
        # aggregate_outcomes unchanged, which keeps the one-core golden
        # invariant exact by construction rather than by float coincidence.
        aggregate = aggregate_outcomes(outcomes)
        timing = dataclasses.replace(
            aggregate.timing,
            cycles=max(outcome.timing.cycles for outcome in outcomes))
        return dataclasses.replace(aggregate, benchmark=name, timing=timing,
                                   cores=tuple(blocks))

    # -- phases ---------------------------------------------------------------
    def _warm(self, cores, streams, config) -> None:
        """Warm every core in core order.

        Warm-up is sequential, not interleaved: the §9.1 methodology warms
        each member to steady state, and a deterministic order keeps the
        shared-level LRU state reproducible.
        """
        from repro.sim import compiled as compiled_mod

        for core, bundle_streams in zip(cores, streams):
            compiled_mod.warm_working_set(core.hierarchy,
                                          bundle_streams.working_set, config)
            if bundle_streams.warm is not None:
                compiled_mod.warm_trace(core.hierarchy, bundle_streams.warm,
                                        config)

    @staticmethod
    def _replay_interleaved(cores, measured, lats) -> None:
        """Round-robin the cores' demand sequences through the hierarchy.

        Access positions are absolute into each core's full latency array,
        so slicing needs no re-indexing; empty tails simply drop out of the
        rotation.  Each slice routes through ``access_batch`` and therefore
        runs in the native kernel or the Python loop exactly as a
        single-core batch would, on the backend's shared arrays either way.
        The streams' memory columns are int64 arrays already (slices of an
        ``array("q")`` are arrays), so no per-core copies are made.
        """
        addrs = [stream.mem_addr for stream in measured]
        specs = [stream.mem_spec for stream in measured]
        positions = [stream.mem_pos for stream in measured]
        offset = 0
        done = False
        while not done:
            done = True
            stop = offset + EPOCH_ACCESSES
            for core, a, s, p, lat in zip(cores, addrs, specs, positions,
                                          lats):
                if offset >= len(a):
                    continue
                core.hierarchy.access_batch(a[offset:stop], s[offset:stop],
                                            p[offset:stop], lat)
                if stop < len(a):
                    done = False
            offset = stop
