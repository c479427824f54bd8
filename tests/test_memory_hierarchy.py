"""Tests for the Table 2 memory hierarchy."""

import pytest

from repro.memory.hierarchy import (
    HierarchyConfig,
    MemoryHierarchy,
    PortKind,
    SharedMemoryBackend,
)
from repro.sim.results import CoreResult
from tests.helpers import hierarchy_access, resident


@pytest.fixture
def hierarchy():
    return MemoryHierarchy()


def accesses(cache):
    return cache.hits + cache.misses


def lock_mpki(hierarchy, uops):
    """A core's lock-cache MPKI as a mix cell reports it: its attributed
    misses per 1000 µops (the multi-core simulator fills ``CoreResult``
    from ``stats.shared``)."""
    return CoreResult(core=0, benchmark="b", total_uops=uops,
                      lock_cache_misses=hierarchy.stats.shared["lock_misses"]
                      ).lock_cache_mpki()


class TestLatencies:
    def test_l1_hit_latency(self, hierarchy):
        hierarchy_access(hierarchy, 0x1000)
        assert (hierarchy_access(hierarchy, 0x1000)
                == hierarchy.config.l1d.hit_latency)

    def test_cold_miss_costs_more_than_l1_hit(self, hierarchy):
        cold = hierarchy_access(hierarchy, 0x200000)
        warm = hierarchy_access(hierarchy, 0x200000)
        assert cold > warm

    def test_dram_latency_included_on_cold_miss(self, hierarchy):
        latency = hierarchy_access(hierarchy, 0x900000)
        assert latency >= hierarchy.config.dram_latency

    def test_l3_is_inclusive_of_demand_accesses(self, hierarchy):
        hierarchy_access(hierarchy, 0x4000)
        assert resident(hierarchy.l3, 0x4000)


class TestLockCache:
    def test_lock_port_uses_lock_cache_when_enabled(self, hierarchy):
        hierarchy_access(hierarchy, 0x5000, port=PortKind.LOCK)
        assert accesses(hierarchy.lock_cache) == 1
        assert accesses(hierarchy.l1d) == 0

    def test_lock_port_uses_data_cache_when_disabled(self):
        config = HierarchyConfig(lock_cache_enabled=False)
        hierarchy = MemoryHierarchy(config)
        hierarchy_access(hierarchy, 0x5000, port=PortKind.LOCK)
        assert accesses(hierarchy.lock_cache) == 0
        assert accesses(hierarchy.l1d) == 1

    def test_lock_cache_hit_is_cheap(self, hierarchy):
        hierarchy_access(hierarchy, 0x5000, port=PortKind.LOCK)
        assert hierarchy_access(hierarchy, 0x5000, port=PortKind.LOCK) == \
            hierarchy.config.lock_cache.hit_latency

    def test_lock_cache_mpki(self, hierarchy):
        hierarchy_access(hierarchy, 0x5000, port=PortKind.LOCK)
        assert hierarchy.stats.shared["lock_misses"] == 1
        assert lock_mpki(hierarchy, uops=1000) == pytest.approx(1.0)

    def test_lock_cache_mpki_is_per_core_on_a_shared_backend(self):
        backend = SharedMemoryBackend(HierarchyConfig())
        core0 = MemoryHierarchy(shared=backend, core_id=0)
        core1 = MemoryHierarchy(shared=backend, core_id=1)
        for i in range(10):
            hierarchy_access(core0, 0x5000 + 64 * i, port=PortKind.LOCK)
        hierarchy_access(core1, 0x1000)
        assert backend.lock_cache.misses == 10
        assert lock_mpki(core0, uops=1000) == pytest.approx(10.0)
        assert lock_mpki(core1, uops=1000) == 0.0


class TestShadowAccesses:
    def test_ideal_shadow_never_misses(self):
        config = HierarchyConfig(ideal_shadow=True)
        hierarchy = MemoryHierarchy(config)
        first = hierarchy_access(hierarchy, 1 << 47, port=PortKind.SHADOW)
        assert first == config.l1d.hit_latency
        assert accesses(hierarchy.l1d) == 0

    def test_real_shadow_uses_data_cache(self, hierarchy):
        hierarchy_access(hierarchy, 1 << 47, port=PortKind.SHADOW)
        assert accesses(hierarchy.l1d) == 1
        assert "shadow" in hierarchy.stats.accesses


class TestStats:
    def test_stats_record_by_class(self, hierarchy):
        hierarchy_access(hierarchy, 0x1000, port=PortKind.DATA)
        hierarchy_access(hierarchy, 0x2000, port=PortKind.LOCK)
        assert hierarchy.stats.accesses["data"] == 1
        assert hierarchy.stats.accesses["lock"] == 1

    def test_latency_totals_by_class(self, hierarchy):
        cold = hierarchy_access(hierarchy, 0x1000)
        warm = hierarchy_access(hierarchy, 0x1000)
        assert hierarchy.stats.total_latency == {"data": cold + warm}

    def test_reset_stats_clears_counts_but_not_contents(self, hierarchy):
        hierarchy_access(hierarchy, 0x1000)
        hierarchy.reset_stats()
        assert accesses(hierarchy.l1d) == 0
        assert (hierarchy_access(hierarchy, 0x1000)
                == hierarchy.config.l1d.hit_latency)
