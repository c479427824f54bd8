"""Tests for the baseline checkers and the Table 1 comparison harness."""

from repro.baselines.comparison import (
    ComparisonHarness,
    EventKind,
    reallocation_scenario,
    standard_scenarios,
)
from repro.baselines.location_based import LocationBasedChecker
from repro.baselines.sw_identifier import (
    DisjointIdentifierChecker,
    InlineIdentifierChecker,
)


class TestLocationBasedChecker:
    def test_access_to_allocated_memory_passes(self):
        checker = LocationBasedChecker()
        checker.on_alloc(0x1000, 64)
        assert checker.check_access(0x1010)

    def test_access_after_free_fails(self):
        checker = LocationBasedChecker()
        checker.on_alloc(0x1000, 64)
        checker.on_free(0x1000, 64)
        assert not checker.check_access(0x1010)

    def test_reallocation_masks_the_error(self):
        """The fundamental §2.1 limitation this baseline exists to show."""
        checker = LocationBasedChecker()
        checker.on_alloc(0x1000, 64)
        checker.on_free(0x1000, 64)
        checker.on_alloc(0x1000, 64)     # reuse
        assert checker.check_access(0x1010)   # dangling access passes (missed)

    def test_partial_overlap_detected(self):
        checker = LocationBasedChecker()
        checker.on_alloc(0x1000, 16)
        assert not checker.check_access(0x1010, 8)

    def test_stats(self):
        checker = LocationBasedChecker()
        checker.on_alloc(0x1000, 8)
        checker.check_access(0x1000)
        checker.check_access(0x2000)
        assert checker.stats.accesses == 2
        assert checker.stats.violations == 1


class TestIdentifierCheckers:
    def _uaf_after_realloc(self, checker):
        key = checker.on_alloc(1, 64)
        checker.on_pointer_created("p", 1, key)
        checker.on_free(1)
        key2 = checker.on_alloc(2, 64)
        checker.on_pointer_created("q", 2, key2)
        return checker.check_access("p")

    def test_disjoint_checker_detects_uaf_after_realloc(self):
        assert not self._uaf_after_realloc(DisjointIdentifierChecker())

    def test_inline_checker_detects_uaf_after_realloc(self):
        assert not self._uaf_after_realloc(InlineIdentifierChecker())

    def test_every_pointer_to_a_freed_allocation_fails(self):
        checker = DisjointIdentifierChecker()
        key = checker.on_alloc(1, 64)
        checker.on_pointer_created("p", 1, key)
        checker.on_pointer_created("q", 1, key)
        checker.on_free(1)
        assert not checker.check_access("p")
        assert not checker.check_access("q")

    def test_cast_destroys_inline_metadata_only(self):
        inline = InlineIdentifierChecker()
        disjoint = DisjointIdentifierChecker()
        for checker in (inline, disjoint):
            key = checker.on_alloc(1, 64)
            checker.on_pointer_created("p", 1, key)
            checker.on_arbitrary_cast("p")
            checker.on_free(1)
        assert inline.check_access("p")          # silently passes: unsound
        assert not disjoint.check_access("p")    # still detected

    def test_representative_overheads_ordered(self):
        assert InlineIdentifierChecker.representative_overhead > \
            DisjointIdentifierChecker.representative_overhead


class TestComparisonHarness:
    def test_scenarios_contain_errors(self):
        for name, events in standard_scenarios().items():
            if name == "cast-control":
                continue
            assert any(e.is_error for e in events), name

    def test_reallocation_scenario_reuses_address(self):
        events = reallocation_scenario()
        allocs = [e for e in events if e.kind is EventKind.ALLOC]
        assert allocs[0].address == allocs[1].address

    def test_summaries_match_table1(self):
        harness = ComparisonHarness()
        rows = {summary.name: summary for summary in harness.summaries()}
        assert len(rows) == 11
        # Location-based approaches: cast-safe but not comprehensive.
        for name in ("MC", "JK", "LBA", "SProc", "MTrac"):
            assert rows[name].safe_with_casts and not rows[name].comprehensive
        # Inline-metadata identifier approaches: comprehensive but cast-unsafe.
        for name in ("SafeC", "P&F", "MSCC", "Chuang"):
            assert rows[name].comprehensive and not rows[name].safe_with_casts
        # Disjoint identifier approaches (CETS, Watchdog): both properties.
        for name in ("CETS", "Watchdog"):
            assert rows[name].comprehensive and rows[name].safe_with_casts

    def test_watchdog_summary_is_hardware_disjoint(self):
        summary, = [row for row in ComparisonHarness().summaries()
                    if row.name == "Watchdog"]
        assert summary.instrumentation == "H/W"
        assert summary.metadata.lower() == "disjoint"

    def test_format_table_lists_all_approaches(self):
        table = ComparisonHarness().format_table()
        for name in ("MC", "CETS", "Watchdog"):
            assert name in table
