"""State-evolution core of the synthetic workload generator.

:class:`WorkloadCore` owns everything about a workload that *evolves*: the
RNG stream, the live-object set (slot arrays shared with the optional
native kernel) and the heap it lives on, the hot/cold working-set
structure, locality cursors, and the call-depth / register-rotation
bookkeeping.  It knows nothing about :class:`~repro.sim.trace.DynamicOp` —
materializing instructions is the trace-emission layer's job
(:class:`~repro.workloads.synthetic.SyntheticWorkload`).

The split exists for one reason: §9.1 sampled simulation at paper scale
spends >95% of the horizon inside fast-forward windows, where the functional
state must advance but no trace may be kept.  The compiled kernel
(:mod:`repro.workloads._ffcore`), driven over this class's arrays by
:meth:`WorkloadCore._run_kernel`, walks whole events there — identical RNG
draws, identical heap/cursor/hot-set effects — without constructing a
single instruction object or returning to Python for an allocation.  The
emission layer's event draws are the one Python definition of the stream:
without the kernel, skip windows draw its events and drop them, and the
golden fast-forward and emission tests check the kernel against it.

Objects live on a :class:`~repro.workloads.heap.WorkloadHeap`: dlmalloc's
placement and LIFO lock locations, kept in flat arrays that the kernel and
the Python methods below update alike.

Object storage is *slot based*: every allocation gets a monotonically
increasing slot id addressing append-only parallel arrays (base address,
size, locality cursor, pointer-richness, lock location, chunk size).
``_order`` lists the live slots in insertion order (the cold-pool window is
its tail), ``_hot`` is the recently-touched slot list.  Slots are never
reused, so a freed slot that lingers in the hot set (the generator's
deliberate stale-reference behaviour) keeps addressing its frozen
base/size/cursor data — exactly the semantics the original object-based
generator had — while the C kernel sees plain int64/int8 arrays it can
index directly.
"""

from __future__ import annotations

import random
import zlib
from array import array
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.memory.address_space import AddressSpaceLayout
from repro.workloads import _ffcore
from repro.workloads.heap import WorkloadHeap
from repro.workloads.profiles import BenchmarkProfile

#: Upper bound on the dynamic ops a single event can produce (an allocation
#: event that both frees and allocates: two 7-op runtime-call sequences).
#: Skip windows only advance whole events while at least this many ops
#: remain, so they never overrun a window boundary.
MAX_EVENT_OPS = 14

#: Most allocation events one kernel call's padding absorbs (about 5 MB of
#: columns); a longer run returns to Python to pad again.
_MAX_ROOM = 1 << 16


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
    #: allocation ever made (~41 bytes/slot) even though only the live working
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
        layout = AddressSpaceLayout()
        self.heap = WorkloadHeap(layout.heap, layout.lock_region)

        # Slot-based object storage (append-only; slots are never reused).
        self._slot_bases = array("q")
        self._slot_sizes = array("q")
        self._slot_cursors = array("q")
        self._slot_rich = array("b")
        self._slot_locks = array("q")
        self._slot_chunks = array("q")
        self._order = array("q")
        self._hot: List[int] = []

        # The global segment's one identifier (§7) takes the first lock
        # location.
        self._global_lock = self.heap.allocate_lock()
        self._global_cursor = 0
        self._call_depth = 0
        self._value_rotation = 0
        self._allocation_counter = 0

        # Precomputed event/draw constants (pure functions of the profile).
        segment = layout.globals_seg
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
        if (self._ffcore is not None
                and self.COLD_POOL_OBJECTS > _ffcore.MAX_COLD_POOL):
            raise ConfigurationError(
                f"COLD_POOL_OBJECTS {self.COLD_POOL_OBJECTS} exceeds the "
                f"generator kernel's {_ffcore.MAX_COLD_POOL}-slot pool")
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
    def _slot_columns(self) -> Tuple[array, ...]:
        """The per-slot arrays, which grow and compact together."""
        return (self._slot_bases, self._slot_sizes, self._slot_cursors,
                self._slot_rich, self._slot_locks, self._slot_chunks)

    def _allocation_size(self) -> int:
        # Exactly rng.randrange(low, high + 1, 16): width -> slot count ->
        # _randbelow; the result is never 0 because low >= 16.
        return self._size_low + 16 * self._randbelow(self._size_nslots)

    def _populate_working_set(self) -> None:
        if self._ffcore is not None:
            self._run_kernel(0, populate=self.profile.working_set_objects)
            return
        for _ in range(self.profile.working_set_objects):
            self._allocate_object()

    def _materialize_allocation(self, size: int) -> int:
        """malloc ``size`` bytes and register the new slot (no RNG draws);
        returns its lock location.

        Retired slots are compacted once ``COMPACT_RETIRED_SLOTS`` of them
        accumulate, checked after the allocation — where the kernel's call
        returns for it.
        """
        base, chunk, lock = self.heap.malloc(size)
        self._allocation_counter += 1
        slot = len(self._slot_sizes)
        self._slot_bases.append(base)
        self._slot_sizes.append(size)
        self._slot_cursors.append(0)
        # Whether this object is part of a pointer-rich data structure
        # (linked structures, pointer arrays).  Pointer loads/stores are
        # directed at these objects; plain data accesses go anywhere.
        self._slot_rich.append(1 if self._allocation_counter % 4 == 0 else 0)
        self._slot_locks.append(lock)
        self._slot_chunks.append(chunk)
        self._order.append(slot)
        self._touch_hot(slot)
        if len(self._slot_sizes) - len(self._order) >= self.COMPACT_RETIRED_SLOTS:
            self._compact_slots()
        return lock

    def _allocate_object(self) -> int:
        return self._materialize_allocation(self._allocation_size())

    def _compact_slots(self) -> None:
        """Renumber reachable slots densely, dropping retired array entries.

        Reachable means: live (in ``_order``), or in the hot set (possibly
        freed but still addressable — the stale-reference quirk).  No RNG
        draws and no heap traffic happen here, and slot *ids* never feed a
        draw or an address, so compaction is invisible to the emitted trace
        — pinned by the golden compaction tests.

        Every structure is mutated **in place**, so a reference to one of
        them held across an allocation stays current.  (Buffer *addresses*
        may still move; :meth:`_run_kernel` re-fetches them for every
        kernel call.)
        """
        keep = sorted(set(self._order) | set(self._hot))
        remap = {old: new for new, old in enumerate(keep)}
        for column in self._slot_columns():
            column[:] = array(column.typecode, (column[s] for s in keep))
        self._order[:] = array("q", (remap[s] for s in self._order))
        self._hot[:] = [remap[s] for s in self._hot]

    def _free_slot(self, index: int) -> int:
        """Free the live object at ``_order[index]`` (no RNG draws);
        returns its lock location."""
        order = self._order
        slot = order[index]
        del order[index]
        hot = self._hot
        if slot in hot:
            hot.remove(slot)  # first occurrence only, like list.remove(obj)
        lock = self._slot_locks[slot]
        self.heap.free(self._slot_bases[slot], self._slot_chunks[slot], lock)
        return lock

    def _free_random_object(self) -> Optional[int]:
        if len(self._order) <= self._min_keep:
            return None
        return self._free_slot(self._randbelow(len(self._order)))

    def _touch_hot(self, slot: int) -> None:
        hot = self._hot
        hot.append(slot)
        if len(hot) > self.HOT_SET_OBJECTS:
            del hot[0]

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
        self._touch_hot(slot)
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
        return self._slot_bases[slot] + offset, self._slot_locks[slot]

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
    def _run_kernel(self, remaining: int, rows=None, written: int = 0,
                    populate: int = 0):
        """Drive the native loop, allocation events included.

        Without ``rows`` it skips whole events while at least
        ``MAX_EVENT_OPS`` ops remain, leaving the RNG stream, heap, working
        set and every cursor exactly where draining the emission layer
        would, and returns the remainder.  With ``rows`` — four
        ``array("q")`` columns (shape, address, lock, mispredict) holding
        ``written`` rows and room for ``remaining + MAX_EVENT_OPS - 1``
        more — it writes at least ``remaining`` ops as rows, the last event
        whole, and returns the new row count.  ``populate`` objects are
        allocated first (a new workload's working set).

        Before each call every column the kernel appends to is padded with
        room for the allocation events the window should hold; the call
        returns early only when that room runs out or compaction is due,
        and the columns are cut back to their live lengths after it.
        """
        advance = self._ffcore.ff_advance
        scal = self._c_scalars
        hotbuf = self._c_hot
        heap = self.heap
        state = self.rng.getstate()
        mt = array("I", state[1][:624])
        mt_addr = mt.buffer_info()[0]
        scal[_ffcore.SCAL_MTI] = state[1][624]
        scal[_ffcore.SCAL_WRITTEN] = written
        scal[_ffcore.SCAL_POPULATE] = populate
        scal[_ffcore.SCAL_COMPACT_AT] = self.COMPACT_RETIRED_SLOTS
        consts_d = self._c_consts_d.buffer_info()[0]
        consts_i = self._c_consts_i.buffer_info()[0]
        out = None
        if rows is not None:
            if min(map(len, rows)) < written + remaining + MAX_EVENT_OPS - 1:
                raise ValueError("token columns too short for the window")
            pointers = array("Q", [column.buffer_info()[0] for column in rows])
            out = pointers.buffer_info()[0]
        # Each group's columns share a live length, and an allocation event
        # adds at most one entry to each.
        groups = ((_ffcore.SCAL_N_SLOTS, self._slot_columns()),
                  (_ffcore.SCAL_N_ORDER, (self._order,)),
                  (_ffcore.SCAL_N_FREE,
                   (heap.free_bases, heap.free_sizes, heap.fit)),
                  (_ffcore.SCAL_N_LOCKS, (heap.lock_stack,)))
        arrays = (self._order, self._slot_sizes, self._slot_cursors,
                  self._slot_rich, hotbuf, self._slot_bases,
                  self._slot_locks, self._slot_chunks, heap.state,
                  heap.free_bases, heap.free_sizes, heap.fit,
                  heap.lock_stack)
        while True:
            room = min(_MAX_ROOM, 16 + scal[_ffcore.SCAL_POPULATE]
                       + int(remaining * self._alloc_probability * 1.25))
            padding = bytes(8 * room)
            for index, columns in groups:
                scal[index] = len(columns[0])
                for column in columns:
                    column.frombytes(padding[:room * column.itemsize])
            hot = self._hot
            for i, slot in enumerate(hot):
                hotbuf[i] = slot
            scal[_ffcore.SCAL_REMAINING] = remaining
            scal[_ffcore.SCAL_VALUE_ROTATION] = self._value_rotation
            scal[_ffcore.SCAL_GLOBAL_CURSOR] = self._global_cursor
            scal[_ffcore.SCAL_CALL_DEPTH] = self._call_depth
            scal[_ffcore.SCAL_HOT_LEN] = len(hot)
            scal[_ffcore.SCAL_ALLOCATIONS] = self._allocation_counter
            scal[_ffcore.SCAL_ROOM] = room
            table = array("Q", [column.buffer_info()[0] for column in arrays])
            reason = advance(mt_addr, scal.buffer_info()[0], consts_d,
                             consts_i, table.buffer_info()[0], out)
            for index, columns in groups:
                for column in columns:
                    del column[scal[index]:]
            remaining = scal[_ffcore.SCAL_REMAINING]
            self._value_rotation = scal[_ffcore.SCAL_VALUE_ROTATION]
            self._global_cursor = scal[_ffcore.SCAL_GLOBAL_CURSOR]
            self._call_depth = scal[_ffcore.SCAL_CALL_DEPTH]
            self._allocation_counter = scal[_ffcore.SCAL_ALLOCATIONS]
            self._hot = list(hotbuf[:scal[_ffcore.SCAL_HOT_LEN]])
            if reason == _ffcore.REASON_DONE:
                break
            if reason != _ffcore.REASON_ROOM:
                _ffcore.raise_for(reason)
            if len(self._slot_sizes) - len(self._order) >= self.COMPACT_RETIRED_SLOTS:
                self._compact_slots()
        self.rng.setstate((state[0], tuple(mt) + (scal[_ffcore.SCAL_MTI],),
                           state[2]))
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

        bases = self._slot_bases
        sizes = self._slot_sizes
        slot_locks = self._slot_locks
        ranges = array("q")
        add = ranges.append
        for slot in self._order:
            base = bases[slot]
            add(base & ~63)
            add(base + sizes[slot])
        add(self._globals_base)
        add(self._globals_base + self._global_span)
        locks = array("q", [slot_locks[slot] for slot in self._order])
        locks.append(self._global_lock)
        return WorkingSetSnapshot(ranges=ranges, locks=locks)

    @property
    def live_objects(self) -> int:
        return len(self._order)
