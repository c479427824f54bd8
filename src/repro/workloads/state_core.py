"""State-evolution core of the synthetic workload generator.

:class:`WorkloadCore` owns everything about a workload that *evolves*: the
RNG stream, the allocator-backed live-object set (slot arrays shared with the
optional native kernel), the hot/cold working-set structure, locality
cursors, and the call-depth / register-rotation bookkeeping.  It knows
nothing about :class:`~repro.sim.trace.DynamicOp` — materializing
instructions is the trace-emission layer's job
(:class:`~repro.workloads.synthetic.SyntheticWorkload`).

The split exists for one reason: §9.1 sampled simulation at paper scale
spends >95% of the horizon inside fast-forward windows, where the functional
state must advance but no trace may be kept.  The compiled kernel
(:mod:`repro.workloads._ffcore`), driven over this class's slot arrays by
:meth:`WorkloadCore._run_kernel`, walks whole events there — identical RNG
draws, identical allocator/cursor/hot-set effects — without constructing a
single instruction object.  The emission layer's event draws are the one
Python definition of the stream: without the kernel, skip windows draw its
events and drop them, and the golden fast-forward and emission tests check
the kernel against it.

Object storage is *slot based*: every allocation gets a monotonically
increasing slot id addressing append-only parallel arrays (base address,
size, locality cursor, pointer-richness, lock location, allocation
record).  ``_order`` lists the live slots in insertion order (the cold-pool
window is its tail), ``_hot`` is the recently-touched slot list.  Slots are never reused, so a
freed slot that lingers in the hot set (the generator's deliberate
stale-reference behaviour) keeps addressing its frozen size/cursor data —
exactly the semantics the original object-based generator had — while the C
kernel sees plain int64/int8 arrays it can index directly.
"""

from __future__ import annotations

import random
import zlib
from array import array
from typing import List, Optional, Set, Tuple

from repro.allocator.runtime import AllocationRecord, InstrumentedRuntime
from repro.core.identifier import IdentifierTable
from repro.memory.address_space import AddressSpace
from repro.workloads import _ffcore
from repro.workloads.profiles import BenchmarkProfile

#: Upper bound on the dynamic ops a single event can produce (an allocation
#: event that both frees and allocates: two 7-op runtime-call sequences).
#: Skip windows only advance whole events while at least this many ops
#: remain, so they never overrun a window boundary.
MAX_EVENT_OPS = 14


class WorkloadCore:
    """Functional state of one synthetic workload, and the native kernel's
    loop over it."""

    #: Fraction of memory accesses directed at the global segment (always
    #: valid global identifier, §7) rather than heap objects.
    GLOBAL_ACCESS_FRACTION = 0.15
    #: Span of the frequently-touched global data (bytes).
    GLOBAL_SPAN_BYTES = 8 * 1024
    #: Number of recently-touched heap objects forming the hot set.
    HOT_SET_OBJECTS = 8
    #: Upper bound on the pool of heap objects cold accesses may reach within
    #: one phase; the pool slides over the full working set as objects churn,
    #: mimicking program phase behaviour instead of uniformly random traffic.
    COLD_POOL_OBJECTS = 192
    #: Retired (freed, unreferenced) slots tolerated in the append-only slot
    #: arrays before they are compacted.  Slots are never reused, so over a
    #: billion-instruction horizon the arrays would otherwise grow with every
    #: allocation ever made (~26 bytes/slot) even though only the live working
    #: set is reachable; compaction keeps the generator side flat too.
    COMPACT_RETIRED_SLOTS = 1_000_000

    def __init__(self, profile: BenchmarkProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed
        # crc32 rather than hash(): str hashing is randomized per process, and
        # the trace must be a pure function of (profile, seed) so that cached
        # results and worker processes agree with a serial in-process run.
        self.rng = random.Random((zlib.crc32(profile.name.encode()) & 0xFFFF) ^ seed)
        # The exact primitive randrange()/choice() consume; binding it keeps
        # every draw on the identical bit stream at a fraction of the cost.
        self._randbelow = self.rng._randbelow
        self.memory = AddressSpace()
        self.identifiers = IdentifierTable(self.memory)
        self.runtime = InstrumentedRuntime(self.memory, identifiers=self.identifiers)

        # Slot-based object storage (append-only; slots are never reused).
        self._slot_bases = array("q")
        self._slot_sizes = array("q")
        self._slot_cursors = array("q")
        self._slot_rich = array("b")
        self._slot_locks = array("q")
        self._slot_live = array("b")
        self._slot_records: List[Optional[AllocationRecord]] = []
        self._order = array("q")
        self._hot: List[int] = []
        #: Freed slots whose records are kept alive because a duplicate hot
        #: entry still references them (the stale-pointer quirk).
        self._stale_kept: Set[int] = set()

        self._global_lock = self.identifiers.global_identifier().lock
        self._global_cursor = 0
        self._call_depth = 0
        self._value_rotation = 0
        self._allocation_counter = 0

        # Precomputed event/draw constants (pure functions of the profile).
        segment = self.memory.layout.globals_seg
        self._globals_base = segment.base
        self._global_span = min(segment.size, self.GLOBAL_SPAN_BYTES)
        self._global_ptr_span = min(self._global_span, 1024)
        self._alloc_probability = profile.allocs_per_kilo / 1000.0
        self._ac_probability = self._alloc_probability + profile.calls_per_kilo / 1000.0
        self._mem_hi = self._ac_probability + profile.memory_fraction
        self._br_hi = self._mem_hi + profile.branch_fraction
        typical = profile.typical_alloc_bytes
        self._size_low = max(16, typical // 2)
        width = typical * 2 + 1 - self._size_low
        self._size_nslots = (width + 15) // 16
        self._min_keep = max(4, profile.working_set_objects // 4)

        self._attach_ffcore()
        self._populate_working_set()

    def _attach_ffcore(self) -> None:
        """Load the native kernel and build its shared constant buffers.

        Called from ``__init__`` and again from ``__setstate__`` (the kernel
        handle and buffers are not picklable).  The kernel's in-place hot
        buffer holds 16 slots: room for ``HOT_SET_OBJECTS`` entries plus the
        one appended before an eviction.  The buffers are built even without
        a kernel, so assigning one to ``_ffcore`` later (the loader's
        self-test does) switches the workload over.
        """
        profile = self.profile
        self._ffcore = _ffcore.load()
        self._c_scalars = array("q", [0] * _ffcore.SCAL_SLOTS)
        self._c_hot = array("q", [0] * 16)
        self._c_consts_d = array("d", [
            self._alloc_probability, self._ac_probability, self._mem_hi,
            self._br_hi, profile.pointer_fraction,
            profile.word_integer_fraction,
            profile.word_integer_fraction + profile.fp_access_fraction,
            profile.fp_compute_fraction, profile.temporal_locality,
            profile.spatial_locality, self.GLOBAL_ACCESS_FRACTION,
            profile.load_fraction, profile.mispredict_rate])
        self._c_consts_i = array("q", [
            self._global_span, self._global_ptr_span,
            profile.working_set_objects, self._min_keep,
            self._size_low, self._size_nslots,
            self.COLD_POOL_OBJECTS, self.HOT_SET_OBJECTS,
            self._globals_base, self._global_lock])

    # -- pickling (the native kernel handle and bound method don't travel) ----------
    def __getstate__(self):
        state = self.__dict__.copy()
        for key in ("_ffcore", "_randbelow", "_c_scalars", "_c_hot",
                    "_c_consts_d", "_c_consts_i"):
            state.pop(key, None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._randbelow = self.rng._randbelow
        self._attach_ffcore()

    # -- working set ----------------------------------------------------------------
    def _allocation_size(self) -> int:
        # Exactly rng.randrange(low, high + 1, 16): width -> slot count ->
        # _randbelow; the result is never 0 because low >= 16.
        return self._size_low + 16 * self._randbelow(self._size_nslots)

    def _populate_working_set(self) -> None:
        for _ in range(self.profile.working_set_objects):
            self._allocate_object()

    def _materialize_allocation(self, size: int) -> int:
        """malloc ``size`` bytes and register the new slot (no RNG draws)."""
        if len(self._slot_sizes) - len(self._order) >= self.COMPACT_RETIRED_SLOTS:
            self._compact_slots()
        pointer, metadata = self.runtime.malloc(size)
        record = self.runtime.record_for(pointer)
        assert record is not None
        self._allocation_counter += 1
        slot = len(self._slot_sizes)
        self._slot_bases.append(record.base)
        self._slot_sizes.append(record.size)
        self._slot_cursors.append(0)
        # Whether this object is part of a pointer-rich data structure
        # (linked structures, pointer arrays).  Pointer loads/stores are
        # directed at these objects; plain data accesses go anywhere.
        self._slot_rich.append(1 if self._allocation_counter % 4 == 0 else 0)
        self._slot_locks.append(metadata.identifier.lock)
        self._slot_live.append(1)
        self._slot_records.append(record)
        self._order.append(slot)
        self._hot.append(slot)
        if len(self._hot) > self.HOT_SET_OBJECTS:
            self._evict_hot()
        return slot

    def _allocate_object(self) -> int:
        return self._materialize_allocation(self._allocation_size())

    def _compact_slots(self) -> None:
        """Renumber reachable slots densely, dropping retired array entries.

        Reachable means: live (in ``_order``), in the hot set (possibly freed
        but still addressable — the stale-reference quirk), or stale-kept.
        No RNG draws and no allocator traffic happen here, and slot *ids*
        never feed a draw or an address, so compaction is invisible to the
        emitted trace — pinned by the golden compaction tests.

        Every structure is mutated **in place**, so a reference to one of
        them held across an allocation stays current.  (Buffer *addresses*
        may still move; :meth:`_run_kernel` re-fetches them around every
        allocator bounce.)
        """
        keep = sorted(set(self._order) | set(self._hot) | self._stale_kept)
        remap = {old: new for new, old in enumerate(keep)}
        self._slot_bases[:] = array("q", (self._slot_bases[s] for s in keep))
        self._slot_sizes[:] = array("q", (self._slot_sizes[s] for s in keep))
        self._slot_cursors[:] = array("q", (self._slot_cursors[s] for s in keep))
        self._slot_rich[:] = array("b", (self._slot_rich[s] for s in keep))
        self._slot_locks[:] = array("q", (self._slot_locks[s] for s in keep))
        self._slot_live[:] = array("b", (self._slot_live[s] for s in keep))
        self._slot_records[:] = [self._slot_records[s] for s in keep]
        self._order[:] = array("q", (remap[s] for s in self._order))
        self._hot[:] = [remap[s] for s in self._hot]
        self._stale_kept = {remap[s] for s in self._stale_kept}

    def _free_slot(self, index: int) -> int:
        """Free the live object at ``_order[index]`` (no RNG draws)."""
        if self._stale_kept:
            self._sweep_stale_records()
        order = self._order
        slot = order[index]
        del order[index]
        hot = self._hot
        if slot in hot:
            hot.remove(slot)  # first occurrence only, like list.remove(obj)
        self._slot_live[slot] = 0
        record = self._slot_records[slot]
        self.runtime.free(record.base, record.metadata)
        if slot in hot:
            # A duplicate hot entry still points at the freed object; keep
            # its record so emission can keep addressing the stale memory,
            # exactly as the object-based generator did.
            self._stale_kept.add(slot)
        else:
            self._slot_records[slot] = None
        return slot

    def _free_random_object(self) -> Optional[int]:
        if len(self._order) <= self._min_keep:
            return None
        return self._free_slot(self._randbelow(len(self._order)))

    def _evict_hot(self) -> None:
        evicted = self._hot.pop(0)
        if not self._slot_live[evicted] and evicted not in self._hot:
            self._slot_records[evicted] = None
            self._stale_kept.discard(evicted)

    def _sweep_stale_records(self) -> None:
        """Drop records of stale slots that have since left the hot set."""
        hot = self._hot
        for slot in [s for s in self._stale_kept if s not in hot]:
            self._slot_records[slot] = None
            self._stale_kept.discard(slot)

    # -- memory target selection ------------------------------------------------------
    def _pick_slot(self, pointer_access: bool = False) -> int:
        hot = self._hot
        rich = self._slot_rich
        if hot and self.rng.random() < self.profile.temporal_locality:
            candidates: List[int] = hot
            if pointer_access:
                rich_slots = [slot for slot in hot if rich[slot]]
                candidates = rich_slots or hot
            return candidates[self._randbelow(len(candidates))]
        # Cold accesses stay within a bounded, slowly-drifting pool of recent
        # objects (program phases) rather than the entire population.
        order = self._order
        n = len(order)
        pool = n if n < self.COLD_POOL_OBJECTS else self.COLD_POOL_OBJECTS
        start = n - pool
        if pointer_access:
            rich_slots = [slot for slot in order[start:] if rich[slot]]
            slot = rich_slots[self._randbelow(len(rich_slots))] if rich_slots \
                else order[start + self._randbelow(pool)]
        else:
            slot = order[start + self._randbelow(pool)]
        hot.append(slot)
        if len(hot) > self.HOT_SET_OBJECTS:
            self._evict_hot()
        return slot

    def _heap_target(self, access_bytes: int, pointer_access: bool) -> Tuple[int, int]:
        """Return (address, lock_address) for a heap access."""
        slot = self._pick_slot(pointer_access)
        size = self._slot_sizes[slot]
        limit = size - access_bytes
        if limit < 1:
            limit = 1
        cursors = self._slot_cursors
        if self.rng.random() < self.profile.spatial_locality:
            offset = cursors[slot] % limit
            bound = size if size > access_bytes else access_bytes
            cursors[slot] = (cursors[slot] + access_bytes) % bound
        else:
            offset = self._randbelow(limit)
        offset &= ~(access_bytes - 1)
        return self._slot_records[slot].base + offset, self._slot_locks[slot]

    def _global_target(self, access_bytes: int, pointer_access: bool) -> Tuple[int, int]:
        # Global pointers (tables of pointers, static linked structures)
        # live in a compact region of the data segment.
        span = self._global_ptr_span if pointer_access else self._global_span
        if self.rng.random() < self.profile.spatial_locality:
            offset = self._global_cursor % span
            self._global_cursor += access_bytes
        else:
            offset = self._randbelow(span)
        offset &= ~(access_bytes - 1)
        return self._globals_base + offset, self._global_lock

    def _memory_target(self, access_bytes: int,
                       pointer_access: bool = False) -> Tuple[int, int]:
        if self.rng.random() < self.GLOBAL_ACCESS_FRACTION or not self._order:
            return self._global_target(access_bytes, pointer_access)
        return self._heap_target(access_bytes, pointer_access)

    # -- the native kernel ------------------------------------------------------------
    def _apply_alloc_event(self, freed_index: int,
                           size: int) -> Tuple[int, int]:
        """Apply an allocation event's effects (draws already consumed);
        returns the lock locations of the freed object (-1 for none) and of
        the new one."""
        freed_lock = -1
        if freed_index >= 0:
            freed_lock = self._slot_locks[self._free_slot(freed_index)]
        return freed_lock, self._slot_locks[self._materialize_allocation(size)]

    def _run_kernel(self, remaining: int, rows=None, written: int = 0):
        """Drive the native loop, bouncing out for allocator events.

        Without ``rows`` it skips whole events while at least
        ``MAX_EVENT_OPS`` ops remain, leaving the RNG stream, allocator
        state, working set and every cursor exactly where draining the
        emission layer would, and returns the remainder.  With ``rows`` —
        four ``array("q")`` columns (shape, address, lock, mispredict)
        holding ``written`` rows and room for ``remaining + MAX_EVENT_OPS -
        1`` more — it writes at least ``remaining`` ops as rows, the last
        event whole, and returns the new row count.  A GETIDENT/SETIDENT row's lock location is only
        known once Python has applied the event's free or malloc, so it is
        patched here: the SETIDENT is the event's last row, and a GETIDENT
        (the event frees first) its seventh.
        """
        advance = self._ffcore.ff_advance
        scal = self._c_scalars
        hotbuf = self._c_hot
        state = self.rng.getstate()
        mt = array("I", state[1][:624])
        mt_addr = mt.buffer_info()[0]
        scal[_ffcore.SCAL_MTI] = state[1][624]
        scal[_ffcore.SCAL_WRITTEN] = written
        consts_d = self._c_consts_d.buffer_info()[0]
        consts_i = self._c_consts_i.buffer_info()[0]
        out = None
        if rows is not None:
            if min(map(len, rows)) < written + remaining + MAX_EVENT_OPS - 1:
                raise ValueError("token columns too short for the window")
            locks = rows[2]
            pointers = array("Q", [column.buffer_info()[0] for column in rows])
            out = pointers.buffer_info()[0]
        while True:
            hot = self._hot
            for i, slot in enumerate(hot):
                hotbuf[i] = slot
            scal[_ffcore.SCAL_REMAINING] = remaining
            scal[_ffcore.SCAL_VALUE_ROTATION] = self._value_rotation
            scal[_ffcore.SCAL_GLOBAL_CURSOR] = self._global_cursor
            scal[_ffcore.SCAL_CALL_DEPTH] = self._call_depth
            scal[_ffcore.SCAL_N_ORDER] = len(self._order)
            scal[_ffcore.SCAL_HOT_LEN] = len(hot)
            advance(mt_addr, scal.buffer_info()[0], consts_d, consts_i,
                    self._order.buffer_info()[0],
                    self._slot_sizes.buffer_info()[0],
                    self._slot_cursors.buffer_info()[0],
                    self._slot_rich.buffer_info()[0],
                    hotbuf.buffer_info()[0],
                    self._slot_bases.buffer_info()[0],
                    self._slot_locks.buffer_info()[0], out)
            remaining = scal[_ffcore.SCAL_REMAINING]
            self._value_rotation = scal[_ffcore.SCAL_VALUE_ROTATION]
            self._global_cursor = scal[_ffcore.SCAL_GLOBAL_CURSOR]
            self._call_depth = scal[_ffcore.SCAL_CALL_DEPTH]
            self._hot = list(hotbuf[:scal[_ffcore.SCAL_HOT_LEN]])
            if scal[_ffcore.SCAL_REASON] != _ffcore.REASON_ALLOC:
                break
            freed_index = scal[_ffcore.SCAL_FREED_INDEX]
            freed_lock, new_lock = self._apply_alloc_event(
                freed_index, scal[_ffcore.SCAL_ALLOC_SIZE])
            if rows is not None:
                end = scal[_ffcore.SCAL_WRITTEN]
                locks[end - 1] = new_lock
                if freed_index >= 0:
                    locks[end - 8] = freed_lock
        self.rng.setstate((state[0], tuple(mt) + (scal[_ffcore.SCAL_MTI],),
                           state[2]))
        if self._stale_kept:
            self._sweep_stale_records()
        return remaining if rows is None else scal[_ffcore.SCAL_WRITTEN]

    # -- working-set snapshot (used by the simulator's warm-up) ------------------------
    def snapshot_working_set(self):
        """Freeze the current working set as per-object line ranges.

        One pass over the live slots, in ``_order`` order, writes each
        object's ``[base & ~63, base + size)`` pair, then the hot global
        span's; the 64-byte lines of a pair are ``range(start, end, 64)``.
        The lock column holds each live object's lock location, then the
        global lock.  The simulator installs these lines (and their shadow
        lines) before the measured window so that it reflects steady state
        rather than the cold start of a short synthetic trace.  The snapshot
        owns its columns (nothing mutates them) and is picklable, so one
        generated trace can be replayed under many Watchdog configurations —
        including in worker processes — without re-running the generator.
        """
        from repro.workloads.bundle import WorkingSetSnapshot

        records = self._slot_records
        slot_locks = self._slot_locks
        ranges = array("q")
        add = ranges.append
        for slot in self._order:
            record = records[slot]
            base = record.base
            add(base & ~63)
            add(base + record.size)
        add(self._globals_base)
        add(self._globals_base + self._global_span)
        locks = array("q", [slot_locks[slot] for slot in self._order])
        locks.append(self._global_lock)
        return WorkingSetSnapshot(ranges=ranges, locks=locks)

    @property
    def live_objects(self) -> int:
        return len(self._order)
