"""Tests for the Table 2 memory hierarchy."""

import pytest

from repro.memory.hierarchy import (
    HierarchyConfig,
    MemoryHierarchy,
    PortKind,
    SharedMemoryBackend,
)


@pytest.fixture
def hierarchy():
    return MemoryHierarchy()


class TestLatencies:
    def test_l1_hit_latency(self, hierarchy):
        hierarchy.access(0x1000)
        assert hierarchy.access(0x1000) == hierarchy.config.l1d.hit_latency

    def test_cold_miss_costs_more_than_l1_hit(self, hierarchy):
        cold = hierarchy.access(0x200000)
        warm = hierarchy.access(0x200000)
        assert cold > warm

    def test_dram_latency_included_on_cold_miss(self, hierarchy):
        latency = hierarchy.access(0x900000)
        assert latency >= hierarchy.config.dram_latency

    def test_l3_is_inclusive_of_demand_accesses(self, hierarchy):
        hierarchy.access(0x4000)
        assert hierarchy.l3.probe(0x4000)


class TestLockCache:
    def test_lock_port_uses_lock_cache_when_enabled(self, hierarchy):
        hierarchy.access(0x5000, port=PortKind.LOCK)
        assert hierarchy.lock_cache.accesses == 1
        assert hierarchy.l1d.accesses == 0

    def test_lock_port_uses_data_cache_when_disabled(self):
        config = HierarchyConfig(lock_cache_enabled=False)
        hierarchy = MemoryHierarchy(config)
        hierarchy.access(0x5000, port=PortKind.LOCK)
        assert hierarchy.lock_cache.accesses == 0
        assert hierarchy.l1d.accesses == 1

    def test_lock_cache_hit_is_cheap(self, hierarchy):
        hierarchy.access(0x5000, port=PortKind.LOCK)
        assert hierarchy.access(0x5000, port=PortKind.LOCK) == \
            hierarchy.config.lock_cache.hit_latency

    def test_lock_cache_mpki(self, hierarchy):
        hierarchy.access(0x5000, port=PortKind.LOCK)
        assert hierarchy.lock_cache_mpki(1000) == pytest.approx(1.0)
        assert hierarchy.lock_cache_mpki(0) == 0.0

    def test_lock_cache_mpki_is_per_core_on_a_shared_backend(self):
        backend = SharedMemoryBackend(HierarchyConfig())
        core0 = MemoryHierarchy(shared=backend, core_id=0)
        core1 = MemoryHierarchy(shared=backend, core_id=1)
        for i in range(10):
            core0.access(0x5000 + 64 * i, port=PortKind.LOCK)
        core1.access(0x1000)
        assert backend.lock_cache.misses == 10
        assert core0.lock_cache_mpki(1000) == pytest.approx(10.0)
        assert core1.lock_cache_mpki(1000) == 0.0


class TestShadowAccesses:
    def test_ideal_shadow_never_misses(self):
        config = HierarchyConfig(ideal_shadow=True)
        hierarchy = MemoryHierarchy(config)
        first = hierarchy.access(1 << 47, port=PortKind.SHADOW)
        assert first == config.l1d.hit_latency
        assert hierarchy.l1d.accesses == 0

    def test_real_shadow_uses_data_cache(self, hierarchy):
        hierarchy.access(1 << 47, port=PortKind.SHADOW)
        assert hierarchy.l1d.accesses == 1
        assert "shadow" in hierarchy.stats.accesses


class TestStats:
    def test_stats_record_by_class(self, hierarchy):
        hierarchy.access(0x1000, port=PortKind.DATA)
        hierarchy.access(0x2000, port=PortKind.LOCK)
        assert hierarchy.stats.accesses["data"] == 1
        assert hierarchy.stats.accesses["lock"] == 1

    def test_average_latency(self, hierarchy):
        hierarchy.access(0x1000)
        hierarchy.access(0x1000)
        assert hierarchy.stats.average_latency("data") > 0
        assert hierarchy.stats.average_latency("absent") == 0.0

    def test_reset_stats_clears_counts_but_not_contents(self, hierarchy):
        hierarchy.access(0x1000)
        hierarchy.reset_stats()
        assert hierarchy.l1d.accesses == 0
        assert hierarchy.access(0x1000) == hierarchy.config.l1d.hit_latency
