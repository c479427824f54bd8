"""The timing kernel's working-set install against the Python install.

``ws_install`` (:func:`repro.native._timecore.install_working_set`) reads a
snapshot's line ranges and locks as they are: it walks an empty level newest
first and stops when the level is full, and a level that already holds lines
takes the forward fill.  The Python install
(:func:`repro.sim.compiled._install_python`) expands the columns and fills
each cache oldest address first; it is the kernel's oracle.  Both must leave
every L1D, L2, L3 and lock-cache way and every TLB slot equal, on a fresh
hierarchy (a single-core cell, core 0 of a mix) and on a mix's second core,
whose shared levels hold the first core's dirty lines.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import WatchdogConfig
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import (
    HierarchyConfig,
    MemoryHierarchy,
    SharedMemoryBackend,
)
from repro.memory.tlb import TLBConfig
from repro.native import _timecore
from repro.pipeline.core import OutOfOrderCore
from repro.sim.compiled import (
    WarmStream,
    WorkingSetArrays,
    warm_trace,
    warm_working_set,
    working_set_arrays,
)
from repro.workloads.profiles import profile_by_name
from repro.workloads.synthetic import SyntheticWorkload

pytestmark = pytest.mark.skipif(_timecore.load() is None,
                                reason="native timing core unavailable")

DATA = 0x2000_0000
LOCKS = 0x6000_0000


def small_config(lock_en: bool, ideal: bool) -> HierarchyConfig:
    """8 L1D, 32 L2, 64 L3 and 4 lock-cache lines, 1KB pages: the tail
    limits bite and the L3 overflows on a few dozen objects."""
    return HierarchyConfig(
        l1d=CacheConfig("L1D", size_bytes=512, associativity=2),
        l2=CacheConfig("L2", size_bytes=2048, associativity=4),
        l3=CacheConfig("L3", size_bytes=4096, associativity=4),
        lock_cache=CacheConfig("LockLoc", size_bytes=256, associativity=2),
        l1_tlb=TLBConfig("DTLB", entries=4, page_bytes=1024),
        lock_tlb=TLBConfig("LockTLB", entries=2, page_bytes=1024),
        lock_cache_enabled=lock_en, ideal_shadow=ideal)


#: Objects as (first line, size in bytes): they overlap, share lines and
#: may be empty.
objects = st.lists(st.tuples(st.integers(0, 95), st.integers(0, 400)),
                   max_size=24)
#: Lock locations, eight to a line, repeats likely.
lock_columns = st.lists(st.integers(0, 63), max_size=30)


def snapshot(drawn_objects, drawn_locks, mw: int) -> WorkingSetArrays:
    ranges = array("q")
    for line, size in drawn_objects:
        ranges.extend((DATA + 64 * line, DATA + 64 * line + size))
    return WorkingSetArrays(
        ranges=ranges, locks=array("q", (LOCKS + 8 * i for i in drawn_locks)),
        metadata_words=mw)


@settings(max_examples=200, deadline=None)
@given(drawn_objects=objects, drawn_locks=lock_columns,
       mw=st.sampled_from((0, 2, 4)), ideal=st.booleans(),
       lock_en=st.booleans())
def test_fresh_hierarchy(drawn_objects, drawn_locks, mw, ideal, lock_en):
    ws = snapshot(drawn_objects, drawn_locks, mw)
    config = WatchdogConfig.isa_assisted_uaf().with_(ideal_shadow=ideal)
    kernel_h, python_h = (MemoryHierarchy(small_config(lock_en, ideal))
                          for _ in range(2))
    python_h.timecore = False
    for h in (kernel_h, python_h):
        warm_working_set(h, ws, config)
    assert _timecore._same_hierarchy(kernel_h, python_h)


@settings(max_examples=100, deadline=None)
@given(first=st.tuples(objects, lock_columns),
       second=st.tuples(objects, lock_columns),
       writes=st.lists(st.tuples(st.integers(0, 127), st.integers(0, 2)),
                       min_size=1, max_size=60),
       mw=st.sampled_from((0, 2, 4)), ideal=st.booleans(),
       lock_en=st.booleans())
def test_second_core_over_dirty_shared_levels(first, second, writes, mw,
                                              ideal, lock_en):
    """Core 0 installs its working set and replays a warm trace of writes
    on every port; core 1's install then lands on shared levels that hold
    dirty lines, some of them its own."""
    config = WatchdogConfig.isa_assisted_uaf().with_(ideal_shadow=ideal)
    trace = WarmStream(
        addrs=array("q", (DATA + 64 * line if port != 1 else LOCKS + 8 * line
                          for line, port in writes)),
        specs=array("q", (port | 4 for _, port in writes)))
    sides = []
    for timecore in (True, False):
        backend = SharedMemoryBackend(small_config(lock_en, ideal))
        cores = [MemoryHierarchy(shared=backend, core_id=i) for i in (0, 1)]
        for core in cores:
            core.timecore = timecore
        sides.append(cores)
    for cores in sides:
        warm_working_set(cores[0], snapshot(*first, mw), config)
        warm_trace(cores[0], trace, config)
    assert _timecore._same_hierarchy(sides[0][0], sides[1][0])
    for cores in sides:
        warm_working_set(cores[1], snapshot(*second, mw), config)
    assert _timecore._same_hierarchy(sides[0][1], sides[1][1])


@pytest.mark.parametrize("config", (
    WatchdogConfig.full_safety_fused(),
    WatchdogConfig.idealized_shadow(),
    WatchdogConfig.no_lock_cache()),
    ids=("fused-bounds", "ideal-shadow", "no-lock-cache"))
def test_largest_snapshot_on_table2_geometry(config):
    """lbm-long's working set: ~250k data lines, which with their shadow
    lines overflow every set of the Table 2 L3."""
    workload = SyntheticWorkload(profile_by_name("lbm-long"), seed=7)
    workload.emit(2_000)
    ws = working_set_arrays(workload.snapshot_working_set(), config)
    kernel_h, python_h = (OutOfOrderCore(watchdog=config,
                                         timecore=flag).hierarchy
                          for flag in (True, False))
    for h in (kernel_h, python_h):
        warm_working_set(h, ws, config)
    assert _timecore._same_hierarchy(kernel_h, python_h)
    l3 = kernel_h.l3
    full_sets = sum(1 for i in range(1, l3._num_sets + 1)
                    if l3.ways[i * l3._assoc - 1])
    if not config.ideal_shadow:
        assert full_sets == l3._num_sets
