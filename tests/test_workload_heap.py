"""The workload heap and the kernel's allocation events.

:class:`~repro.workloads.heap.WorkloadHeap` must place every object where
:class:`~repro.allocator.dlmalloc.DlMallocAllocator` places it and hand out
the lock location :class:`~repro.core.identifier.LockLocationAllocator`
hands out, in its Python methods and in the generator kernel's heap code
(``ff_heap``, through :class:`~repro.workloads._ffcore.KernelHeap`) alike.
The two allocators are the oracle: every request sequence below runs
through all three heaps, compared at every step.

Also here: the kernel applies a skip window's allocation events without
returning to Python, populates a new workload's working set as the Python
path does, and refuses a cold pool larger than its buffer.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.allocator.dlmalloc import DlMallocAllocator
from repro.core.identifier import LockLocationAllocator
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.memory.address_space import AddressSpace, Segment
from repro.workloads import _ffcore, state_core
from repro.workloads.heap import FIT_SHIFT, WorkloadHeap
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import SyntheticWorkload

from tests.test_fast_forward import state_fingerprint
from tests.test_native_emission import ALLOC_HEAVY

needs_kernel = pytest.mark.skipif(
    _ffcore.load() is None, reason="native fast-forward kernel unavailable")

#: A small heap and lock region, so drawn sequences also exhaust them.
HEAP = Segment("heap", 0x2000_0000, 0x2000_1000)
LOCKS = Segment("locks", 0x6000_0000, 0x6000_0000 + 8 * 24)


class OracleHeap:
    """DL-malloc plus the LIFO lock-location allocator, answering as the
    workload heap does."""

    def __init__(self, heap, locks):
        memory = AddressSpace()
        self.allocator = DlMallocAllocator(memory, heap)
        self.locks = LockLocationAllocator(memory, locks)

    def malloc(self, size):
        base = self.allocator.malloc(size)
        return base, self.allocator.chunk_size(base), self.locks.allocate()

    def free(self, base, chunk, lock):
        self.locks.release(lock)
        assert self.allocator.free(base) == chunk

    def free_chunks(self):
        """The free chunks as ``(size, base)``, least first."""
        return sorted(entry for bin_list in self.allocator._bins
                      for entry in bin_list)


def free_chunks(heap):
    """``heap``'s free chunks as ``(size, base)`` from its fit keys, after
    checking that its by-address columns list the same chunks."""
    mask = (1 << FIT_SHIFT) - 1
    fit = [(key >> FIT_SHIFT, key & mask) for key in heap.fit]
    assert fit == sorted(fit)
    assert list(heap.free_bases) == sorted(heap.free_bases)
    assert sorted(zip(heap.free_sizes, heap.free_bases)) == fit
    return fit


def heaps(heap=HEAP, locks=LOCKS):
    """The oracle, then the workload heap in Python, then (when it loads)
    in the kernel."""
    found = [OracleHeap(heap, locks), WorkloadHeap(heap, locks)]
    lib = _ffcore.load()
    if lib is not None:
        found.append(_ffcore.KernelHeap(lib, heap, locks))
    return found


def run(operations, heap=HEAP, locks=LOCKS):
    """Apply ``("malloc", size)`` and ``("free", index)`` operations to
    every heap, asserting after each that all agree on the placement, the
    free chunks, the wilderness and the lock locations; a free takes the
    live allocation at ``index`` modulo their count.  Returns the oracle's
    allocator."""
    oracle, *workload_heaps = every = heaps(heap, locks)
    live = []
    for kind, value in operations:
        if kind == "free":
            if not live:
                continue
            entry = live.pop(value % len(live))
            for each in every:
                each.free(*entry)
        else:
            outcomes = set()
            for each in every:
                try:
                    outcomes.add(each.malloc(value))
                except OutOfMemoryError as error:
                    outcomes.add(str(error).split(":")[0])
            assert len(outcomes) == 1, (kind, value, outcomes)
            outcome = outcomes.pop()
            if isinstance(outcome, tuple):
                live.append(outcome)
        chunks = oracle.free_chunks()
        for each in workload_heaps:
            assert free_chunks(each) == chunks
            assert each.state[0] == oracle.allocator._wilderness
            assert each.state[2] == oracle.locks._bump
            assert list(each.lock_stack) == oracle.locks._free_list
    return oracle.allocator


class TestHeapMatchesDlMalloc:
    def test_every_split_and_coalescing_case(self):
        # A..H from the wilderness, then frees whose neighbours are free on
        # neither side, the successor's, the predecessor's and both.
        operations = [("malloc", size)
                      for size in (40, 100, 24, 200, 64, 16, 50, 30)]
        live = list(range(8))

        def free(letter):
            index = live.index("ABCDEFGH".index(letter))
            live.pop(index)
            return ("free", index)

        operations += [free("B"),     # A, C live: neither
                       free("F"),     # E, G live: neither
                       free("E"),     # F free: successor only
                       free("C"),     # B free, D live: predecessor only
                       free("D"),     # B..C and E..F free: both
                       ("malloc", 120),   # B..F, split
                       ("malloc", 90)]    # its remainder, split again
        allocator = run(operations)
        assert allocator.stats.coalesces == 4
        assert allocator.stats.splits == 2
        # A request whose remainder would be under MIN_CHUNK takes the
        # whole chunk.
        allocator = run([("malloc", 64), ("malloc", 16), ("free", 0),
                         ("malloc", 40)])
        assert allocator.stats.splits == 0
        assert allocator.stats.reuses == 1

    @given(operations=st.lists(
        st.one_of(
            st.tuples(st.just("malloc"),
                      st.one_of(st.integers(1, 48), st.integers(1, 400))),
            st.tuples(st.just("free"), st.integers(0, 1 << 16))),
        max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_drawn_sequences(self, operations):
        """Drawn requests (small ones that split freed chunks, large ones
        that do not fit them) and frees of drawn live objects, on a heap
        and a lock region small enough to run out."""
        run(operations)

    def test_exhaustion_raises_everywhere(self):
        # 24 lock locations: the 25th live object finds none.
        allocator = run([("malloc", 16)] * 25)
        assert allocator.stats.mallocs == 25
        # 4 KiB of heap: the eleventh 400-byte request does not fit, and
        # after it the heaps still agree.
        run([("malloc", 400)] * 11 + [("free", 3), ("malloc", 400)])
        with pytest.raises(OutOfMemoryError, match="heap exhausted"):
            WorkloadHeap(HEAP, LOCKS).malloc(HEAP.size + 1)

    def test_heap_beyond_fit_keys_is_refused(self):
        with pytest.raises(ValueError):
            WorkloadHeap(Segment("heap", 0, 1 << 33), LOCKS)


class _Counting:
    """The real kernel, counting skip-mode ``ff_advance`` calls (those
    without an output pointer) and their ``REASON_ROOM`` returns."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = 0
        self.rooms = 0

    def ff_advance(self, *args):
        reason = self._lib.ff_advance(*args)
        if not args[-1]:
            self.calls += 1
            self.rooms += reason == _ffcore.REASON_ROOM
        return reason

    def __getattr__(self, name):
        return getattr(self._lib, name)


@needs_kernel
class TestKernelAllocationEvents:
    def _spied(self, seed, count, compact_at=None):
        workload = SyntheticWorkload(ALLOC_HEAVY, seed=seed)
        if compact_at is not None:
            workload.COMPACT_RETIRED_SLOTS = compact_at
        spy = workload._ffcore = _Counting(workload._ffcore)
        before = workload._allocation_counter
        workload.fast_forward(count)
        return workload, spy, workload._allocation_counter - before

    def test_skip_window_enters_the_kernel_once(self):
        workload, spy, events = self._spied(seed=3, count=200_000)
        assert events > 5_000
        assert spy.calls == 1 + spy.rooms
        assert spy.rooms == 0

    def test_compaction_returns_once_per_compaction(self):
        workload, spy, events = self._spied(seed=3, count=200_000,
                                            compact_at=400)
        assert spy.rooms >= events // 400 > 10
        assert spy.calls == 1 + spy.rooms
        assert len(workload._slot_sizes) - len(workload._order) < 400 + 9
        reference = SyntheticWorkload(ALLOC_HEAVY, seed=3)
        reference.fast_forward(200_000)
        assert reference.emit(2_000) == workload.emit(2_000)

    def test_full_padding_returns_and_pads_again(self, monkeypatch):
        # Room for 64 allocation events per call: the skip returns once
        # per 64 events and carries on where it stopped.
        monkeypatch.setattr(state_core, "_MAX_ROOM", 64)
        workload, spy, events = self._spied(seed=4, count=100_000)
        assert spy.rooms == events // 64 > 10
        assert spy.calls == 1 + spy.rooms
        reference = SyntheticWorkload(ALLOC_HEAVY, seed=4)
        reference._ffcore = None
        reference.fast_forward(100_000)
        assert state_fingerprint(workload) == state_fingerprint(reference)

    @pytest.mark.parametrize("name", ["mcf-paper", "lbm-long"])
    def test_populates_as_the_python_path(self, name, monkeypatch):
        native = SyntheticWorkload(profile_by_name(name), seed=11)
        monkeypatch.setattr(_ffcore, "load", lambda: None)
        python = SyntheticWorkload(profile_by_name(name), seed=11)
        assert python._ffcore is None and native._ffcore is not None
        assert state_fingerprint(native) == state_fingerprint(python)

    def test_cold_pool_beyond_the_buffer_is_refused(self):
        class Wide(SyntheticWorkload):
            COLD_POOL_OBJECTS = _ffcore.MAX_COLD_POOL + 1

        with pytest.raises(ConfigurationError, match="pool"):
            Wide(profile_by_name("mcf"), seed=1)
