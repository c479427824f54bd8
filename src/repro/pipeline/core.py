"""Trace-driven out-of-order timing model.

This model replays a compiled µop stream (baseline plus Watchdog-injected
µops, packed by :mod:`repro.sim.compiled`) through a dependence-, window- and
port-limited approximation of the Table 2 core.  It captures the effects the
paper's evaluation attributes Watchdog's overhead to:

* extra µops consuming front-end (rename/dispatch) and issue bandwidth
  (Figure 8 vs Figure 7: "the execution time overhead is lower than the µop
  overhead because these µops are off the critical path"),
* check µops contending for data-cache load ports unless the dedicated lock
  location cache provides extra bandwidth (Figure 9),
* shadow metadata accesses adding cache pressure (§9.3 idealized-shadow
  ablation),
* metadata dependences being kept *off* the program's critical path thanks to
  decoupled metadata (§6.2): injected µops depend on the address register's
  data value and on metadata, but program µops never depend on metadata.

The model is not cycle-accurate — it is a behavioural dependence-graph
scheduler — but every structural limit (widths, ROB/IQ/LQ/SQ occupancy, port
counts, cache latencies, branch refill) is enforced, which is what determines
the *relative* overheads the paper reports.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import WatchdogConfig
from repro.isa.microops import UopKind
from repro.isa.registers import NUM_REG_SLOTS
from repro.memory.hierarchy import MemoryHierarchy
from repro.native import _timecore
from repro.native._timecore import unpack_words
from repro.pipeline.config import MachineConfig
from repro.pipeline.resources import FunctionalUnits

# -- per-µop flag word of the compiled stream format ----------------------------------
# Bits 0-4 hold the UopKind code; the compiler (repro.sim.compiled) packs
# these and the array scheduler below consumes them.
FLAG_KIND_MASK = 31
FLAG_LQ = 32          #: µop occupies the load queue
FLAG_SQ = 64          #: µop occupies the store queue
FLAG_BRANCH = 128     #: µop is a branch
FLAG_MISPREDICT = 256  #: branch instance was mispredicted


@functools.lru_cache(maxsize=64)
def _derived_hierarchy_config(base, lock_cache_enabled: bool,
                              ideal_shadow: bool):
    """The machine's hierarchy config with the Watchdog knobs applied.

    Memoized: sweeps construct one core per cell, and rebuilding the frozen
    config dataclass (validation included) thousands of times is measurable.
    """
    return base.__class__(
        l1d=base.l1d, l2=base.l2, l3=base.l3, lock_cache=base.lock_cache,
        l1d_prefetcher=base.l1d_prefetcher, l2_prefetcher=base.l2_prefetcher,
        l1_tlb=base.l1_tlb, lock_tlb=base.lock_tlb,
        dram_latency=base.dram_latency,
        lock_cache_enabled=lock_cache_enabled, ideal_shadow=ideal_shadow)


@dataclass
class TimingResult:
    """Cycle count and supporting statistics for one timing run."""

    cycles: int
    total_uops: int
    injected_uops: int
    macro_instructions: int
    memory_accesses: int
    lock_cache_misses: int
    l1d_misses: int
    port_waits: Dict[str, float] = field(default_factory=dict)


class OutOfOrderCore:
    """Dependence/port/window-limited replay of a compiled µop stream."""

    def __init__(self, machine: Optional[MachineConfig] = None,
                 watchdog: Optional[WatchdogConfig] = None,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 timecore: bool = True):
        self.machine = machine or MachineConfig()
        self.watchdog = watchdog or WatchdogConfig()
        if hierarchy is None:
            # The Watchdog configuration decides whether the lock cache exists
            # and whether shadow accesses are idealized.
            hierarchy = MemoryHierarchy(_derived_hierarchy_config(
                self.machine.hierarchy, self.watchdog.lock_cache_enabled,
                self.watchdog.ideal_shadow))
        # ``timecore=False`` forces the Python loops for this core's
        # scheduler and hierarchy; the hierarchy holds the flag.
        hierarchy.timecore = timecore
        self.hierarchy = hierarchy
        self.units = FunctionalUnits(self.machine.functional_units, self.watchdog)

    # -- the array scheduler -------------------------------------------------------
    def simulate_compiled(self, stream) -> TimingResult:
        """Replay a :class:`~repro.sim.compiled.CompiledStream`.

        Reproduces the retired object-per-µop reference model bit for bit
        (the golden tests pin its recorded digests) in two passes:

        1. the memory hierarchy replays the packed access sequence in one
           batch (access order equals program order, so cache state and load
           latencies are independent of scheduling decisions),
        2. a tight integer loop over the packed µop words schedules
           dispatch, operand readiness (flat register-slot scoreboards), port
           reservation, completion and in-order commit.

        Each pass runs in the native timing core when the hierarchy's
        ``timecore`` is on and the kernel loads, and in its Python loop
        otherwise, with bit-identical results.
        """
        lats = stream.lat_template[:]
        self.hierarchy.access_batch(stream.mem_addr, stream.mem_spec,
                                    stream.mem_pos, lats)
        return self._schedule(stream, lats)

    def schedule_compiled(self, stream, lats) -> TimingResult:
        """Run only the scheduler pass over an already-filled latency array.

        A multi-core simulation interleaves the cores' hierarchy replays in
        epochs (so shared-level contention is ordered across cores) and then
        schedules each core's stream over the latencies its epochs
        produced.  Scheduling is per-core state only, so given equal
        latencies the result is bit-identical to :meth:`simulate_compiled`.
        """
        return self._schedule(stream, lats)

    def _schedule(self, stream, lats) -> TimingResult:
        """The scheduler pass, on the kernel's ``sched_run`` when the
        hierarchy's ``timecore`` is on and the kernel loads, on the Python
        loop otherwise: the one place that picks."""
        lib = _timecore.load() if self.hierarchy.timecore else None
        if lib is None:
            return self._schedule_python(stream, lats)
        return self._schedule_native(stream, lats, lib)

    def _schedule_python(self, stream, lats) -> TimingResult:
        """The Python array scheduler, the kernel's oracle.

        Decodes ``stream.words`` through :func:`unpack_words` on each call.
        """
        machine = self.machine

        # kind code -> port-pool index, honouring the Watchdog configuration
        # (check µops fall back to the data load ports without a lock cache).
        pools = list(self.units.all_pools().values())
        pool_index = {id(pool): i for i, pool in enumerate(pools)}
        pool_map = [0] * len(UopKind)
        for kind in UopKind:
            pool_map[kind.code] = pool_index[id(self.units.pool_for(kind))]
        free_times = [pool._next_free for pool in pools]
        pool_uses = [0] * len(pools)
        pool_waits = [0] * len(pools)

        ready = [0] * NUM_REG_SLOTS
        meta_ready = [0] * NUM_REG_SLOTS

        # FIFO queues as append-only lists with explicit head cursors (the
        # compiled loop never touches more than len(stream) entries, and
        # cursor arithmetic beats deque method calls).
        rob: list = []
        iq: list = []
        lq: list = []
        sq: list = []
        rob_append = rob.append
        iq_append = iq.append
        lq_append = lq.append
        sq_append = sq.append
        rob_head = iq_head = lq_head = sq_head = 0
        rob_len = iq_len = lq_len = sq_len = 0
        rob_size = machine.rob_entries
        iq_size = machine.iq_entries
        lq_size = machine.lq_entries
        sq_size = machine.sq_entries

        dispatch_width = machine.dispatch_width
        dispatch_latency = machine.dispatch_latency
        commit_width = machine.commit_width
        mispredict_penalty = machine.branch_misprediction_penalty

        dispatch_cycle = machine.fetch_latency + machine.rename_latency
        dispatched = 0
        fetch_stall = 0
        last_commit = 0
        commits = 0
        commit_cycle = 0

        for (flags, cost, dest, s0, s1, md, ms0, ms1), latency in \
                zip(unpack_words(stream.words), lats):
            # ---- dispatch: front-end width, window occupancy ----------------
            if dispatched >= dispatch_width:
                dispatch_cycle += 1
                dispatched = 0
            t = dispatch_cycle
            if fetch_stall > t:
                t = fetch_stall
            if rob_len >= rob_size:
                v = rob[rob_head]
                rob_head += 1
                rob_len -= 1
                if v > t:
                    t = v
            elif rob_len and rob[rob_head] <= t:
                rob_head += 1
                rob_len -= 1
            if iq_len >= iq_size:
                v = iq[iq_head]
                iq_head += 1
                iq_len -= 1
                if v > t:
                    t = v
            elif iq_len and iq[iq_head] <= t:
                iq_head += 1
                iq_len -= 1
            if flags & 96:
                if flags & FLAG_LQ:
                    while lq_len and lq[lq_head] <= t:
                        lq_head += 1
                        lq_len -= 1
                    if lq_len >= lq_size:
                        v = lq[lq_head]
                        lq_head += 1
                        lq_len -= 1
                        if v > t:
                            t = v
                else:
                    while sq_len and sq[sq_head] <= t:
                        sq_head += 1
                        sq_len -= 1
                    if sq_len >= sq_size:
                        v = sq[sq_head]
                        sq_head += 1
                        sq_len -= 1
                        if v > t:
                            t = v
            if t > dispatch_cycle:
                dispatch_cycle = t
                dispatched = cost
            else:
                dispatched += cost

            # ---- issue: operand readiness, then a port ----------------------
            r = t + dispatch_latency
            if s0 >= 0:
                v = ready[s0]
                if v > r:
                    r = v
                if s1 >= 0:
                    v = ready[s1]
                    if v > r:
                        r = v
            if ms0 >= 0:
                v = meta_ready[ms0]
                if v > r:
                    r = v
                if ms1 >= 0:
                    v = meta_ready[ms1]
                    if v > r:
                        r = v
            p = pool_map[flags & 31]
            free = free_times[p]
            b = min(free)
            if b > r:
                start = b
                pool_waits[p] += b - r
            else:
                start = r
            free[free.index(b)] = start + cost
            pool_uses[p] += 1
            completion = start + latency

            # ---- writeback ---------------------------------------------------
            if dest >= 0:
                ready[dest] = completion
            if md >= 0:
                meta_ready[md] = completion

            # ---- branch misprediction refill --------------------------------
            if flags & FLAG_MISPREDICT:
                v = completion + mispredict_penalty
                if v > fetch_stall:
                    fetch_stall = v

            # ---- in-order commit --------------------------------------------
            c = completion
            if last_commit > c:
                c = last_commit
            if c == commit_cycle:
                commits += cost
                if commits >= commit_width:
                    c += 1
                    commits = 0
            else:
                commit_cycle = c
                commits = cost
            last_commit = c

            # ---- occupancy bookkeeping --------------------------------------
            rob_append(c)
            rob_len += 1
            iq_append(start)
            iq_len += 1
            if flags & FLAG_LQ:
                lq_append(completion)
                lq_len += 1
            elif flags & FLAG_SQ:
                sq_append(c)
                sq_len += 1

        for pool, uses, waited in zip(pools, pool_uses, pool_waits):
            pool.uses += uses
            pool.total_wait += waited
        port_waits = {name: pool.average_wait()
                      for name, pool in self.units.all_pools().items()}
        return TimingResult(
            cycles=max(last_commit, 1),
            total_uops=stream.total_uops,
            injected_uops=stream.injected_uops,
            macro_instructions=stream.macro_instructions,
            memory_accesses=stream.memory_accesses,
            lock_cache_misses=self.hierarchy.lock_cache.misses,
            l1d_misses=self.hierarchy.l1d.misses,
            port_waits=port_waits,
        )

    def _schedule_native(self, stream, lats, lib) -> TimingResult:
        """The C scheduler over ``stream.words`` and the post-hierarchy
        int64 latency array ``lats``."""
        machine = self.machine
        words = stream.words
        pools = list(self.units.all_pools().values())
        pool_index = {id(pool): i for i, pool in enumerate(pools)}
        pool_map = array("q", bytes(8 * len(UopKind)))
        for kind in UopKind:
            pool_map[kind.code] = pool_index[id(self.units.pool_for(kind))]
        offsets = [0]
        flat_free: list = []
        for pool in pools:
            flat_free.extend(pool._next_free)
            offsets.append(len(flat_free))
        pool_free = array("q", flat_free)
        pool_off = array("q", offsets)
        pool_uses = array("q", bytes(8 * len(pools)))
        pool_waits = array("q", bytes(8 * len(pools)))
        # 64 slots cover every register slot a packed field can encode, so
        # no word can index past the scoreboards.
        ready = array("q", bytes(8 * 64))
        meta_ready = array("q", bytes(8 * 64))
        robq = array("q", bytes(8 * machine.rob_entries))
        iqq = array("q", bytes(8 * machine.iq_entries))
        lqq = array("q", bytes(8 * machine.lq_entries))
        sqq = array("q", bytes(8 * machine.sq_entries))
        cfg = array("q", (machine.dispatch_width, machine.dispatch_latency,
                          machine.commit_width,
                          machine.branch_misprediction_penalty,
                          machine.fetch_latency + machine.rename_latency,
                          machine.rob_entries, machine.iq_entries,
                          machine.lq_entries, machine.sq_entries))
        last_commit = lib.sched_run(
            cfg.buffer_info()[0], words.buffer_info()[0],
            lats.buffer_info()[0], len(words), ready.buffer_info()[0],
            meta_ready.buffer_info()[0], pool_map.buffer_info()[0],
            pool_free.buffer_info()[0], pool_off.buffer_info()[0],
            pool_uses.buffer_info()[0], pool_waits.buffer_info()[0],
            robq.buffer_info()[0], iqq.buffer_info()[0],
            lqq.buffer_info()[0], sqq.buffer_info()[0])

        for i, pool in enumerate(pools):
            # In-place: FunctionalUnits hands out the same list objects.
            pool._next_free[:] = pool_free[pool_off[i]:pool_off[i + 1]]
            pool.uses += pool_uses[i]
            pool.total_wait += pool_waits[i]
        port_waits = {name: pool.average_wait()
                      for name, pool in self.units.all_pools().items()}
        return TimingResult(
            cycles=max(last_commit, 1),
            total_uops=stream.total_uops,
            injected_uops=stream.injected_uops,
            macro_instructions=stream.macro_instructions,
            memory_accesses=stream.memory_accesses,
            lock_cache_misses=self.hierarchy.lock_cache.misses,
            l1d_misses=self.hierarchy.l1d.misses,
            port_waits=port_waits,
        )
