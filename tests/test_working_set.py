"""Working-set install columns: per-object line ranges, expanded per run.

A snapshot stores one ``[base & ~63, base + size)`` pair per live object
plus the hot global span; each install expands the class's view of it
(:func:`repro.sim.compiled.working_set_arrays`) into the ``data`` and
``shadow`` columns (:meth:`~repro.sim.compiled.WorkingSetArrays.columns`),
through the timing kernel's ``ws_expand`` entry when the run uses the
kernel and one ``array.extend(range(...))`` per range otherwise.  Both,
and the ``locks`` column, must equal an oracle written here from the
per-line definitions the snapshot replaced:
lines run from ``base & ~63`` in steps of 64 while ``< base + size``, then
the global span; each data line owns ``metadata_words`` shadow lines.
"""

from array import array

import pytest

from repro.core.config import WatchdogConfig
from repro.memory.address_space import SHADOW_BIT
from repro.native import _timecore, build
from repro.pipeline.core import OutOfOrderCore
from repro.sim.compiled import warm_working_set, working_set_arrays
from repro.workloads.bundle import WorkingSetSnapshot, \
    default_warmup_instructions
from repro.workloads.profiles import (
    benchmark_names,
    long_profile_names,
    profile_by_name,
)
from repro.workloads.synthetic import SyntheticWorkload

#: Baseline (no metadata), ISA-assisted (2 metadata words per pointer) and
#: fused bounds (4 words).
CONFIGS = {
    "baseline": WatchdogConfig.disabled(),
    "isa-assisted": WatchdogConfig.isa_assisted_uaf(),
    "fused-bounds": WatchdogConfig.full_safety_fused(),
}


def oracle_columns(workload, config):
    """``(data, shadow, locks)`` of the live workload, line by line."""
    data = []
    for slot in workload._order:
        record = workload._slot_records[slot]
        line = record.base & ~63
        while line < record.base + record.size:
            data.append(line)
            line += 64
    line = workload._globals_base
    while line < workload._globals_base + workload._global_span:
        data.append(line)
        line += 64
    if not config.enabled:
        return data, [], []
    mw = config.metadata_words
    shadow = [SHADOW_BIT | (((line + i * 64 // mw) & ~7) * mw) % 2 ** 47
              for line in data for i in range(mw)]
    locks = [workload._slot_locks[slot] for slot in workload._order]
    locks.append(workload._global_lock)
    return data, shadow, locks


def built_columns(snapshot, config):
    """The install columns of ``working_set_arrays`` expanded by the kernel
    (when it loads) and in Python, as ``{kind: (data, shadow, locks)}``."""
    ws = working_set_arrays(snapshot, config)
    kernel = _timecore.load()
    libs = {"python": None}
    if kernel is not None:
        libs["kernel"] = kernel
    columns = {}
    for kind, lib in libs.items():
        data, shadow = ws.columns(lib)
        for column in (data, shadow, ws.locks):
            assert isinstance(column, array) and column.typecode == "q"
        columns[kind] = (data, shadow, ws.locks)
    return columns


def assert_matches_oracle(workload):
    """Both builds equal the oracle under every configuration; returns the
    fused-bounds columns."""
    snapshot = workload.snapshot_working_set()
    for name, config in CONFIGS.items():
        oracle = oracle_columns(workload, config)
        for kind, columns in built_columns(snapshot, config).items():
            assert [list(column) for column in columns] == list(oracle), \
                (name, kind)
    return columns


class TestColumnsMatchTheOracle:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_spec_profile_at_8k(self, name):
        workload = SyntheticWorkload(profile_by_name(name), seed=7)
        workload.trace(default_warmup_instructions(8_000))
        workload.trace(8_000)
        assert_matches_oracle(workload)

    @pytest.mark.parametrize("name", long_profile_names())
    def test_long_profile(self, name):
        workload = SyntheticWorkload(profile_by_name(name), seed=7)
        workload.emit(10_000)
        data, shadow, _ = assert_matches_oracle(workload)
        if name == "lbm-long":
            # The largest working set in the tree, at full size.
            assert len(data) > 200_000
            assert len(shadow) == 4 * len(data)

    @pytest.mark.parametrize("name", ["mcf-paper", "gcc-paper"])
    def test_paper_profile_after_fast_forward(self, name):
        workload = SyntheticWorkload(profile_by_name(name), seed=11)
        workload.fast_forward(300_000)
        workload.emit(2_000)
        assert_matches_oracle(workload)

    def test_after_slot_compaction(self):
        reference = SyntheticWorkload(profile_by_name("perl"), seed=3)
        compacted = SyntheticWorkload(profile_by_name("perl"), seed=3)
        compacted.COMPACT_RETIRED_SLOTS = 4
        assert reference.emit(60_000) == compacted.emit(60_000)
        assert len(compacted._slot_sizes) < len(reference._slot_sizes)
        assert assert_matches_oracle(compacted) == \
            assert_matches_oracle(reference)

    def test_objects_sharing_a_line_each_list_it(self):
        # Objects of 0x20 bytes at 0x2000_0010 and 0x40 bytes at
        # 0x2000_0030 share their first line, then a one-line global span:
        # the shared line appears once per object.
        snapshot = WorkingSetSnapshot(
            ranges=array("q", [0x2000_0000, 0x2000_0030,
                               0x2000_0000, 0x2000_0070,
                               0x1000_0000, 0x1000_0040]),
            locks=array("q", [0x6000_0008, 0x6000_0010, 0x6000_0000]))
        first = SHADOW_BIT + 2 * 0x2000_0000
        expected = (
            [0x2000_0000, 0x2000_0000, 0x2000_0040, 0x1000_0000],
            [first, first + 64,
             first, first + 64, first + 128, first + 192,
             SHADOW_BIT + 2 * 0x1000_0000, SHADOW_BIT + 2 * 0x1000_0000 + 64],
            list(snapshot.locks))
        for columns in built_columns(snapshot,
                                     CONFIGS["isa-assisted"]).values():
            assert tuple(list(column) for column in columns) == expected

    def test_real_workloads_share_lines(self):
        # The case above is not hypothetical: small objects pack lines.
        workload = SyntheticWorkload(profile_by_name("mcf"), seed=7)
        data, _, _ = assert_matches_oracle(workload)
        assert len(set(data)) < len(data)


class TestKernelBuildsTheColumns:
    """The install expands the ranges through ``ws_expand`` exactly when
    the run uses the kernel."""

    def _count_entry_calls(self, monkeypatch):
        calls = []
        expand = _timecore.expand_ranges

        def counting_expand(lib, ranges, mw):
            calls.append(mw)
            return expand(lib, ranges, mw)

        monkeypatch.setattr(_timecore, "expand_ranges", counting_expand)
        return calls

    def _install_under_every_config(self, timecore):
        snapshot = SyntheticWorkload(profile_by_name("gzip"),
                                     seed=1).snapshot_working_set()
        for config in CONFIGS.values():
            core = OutOfOrderCore(watchdog=config, timecore=timecore)
            warm_working_set(core.hierarchy,
                             working_set_arrays(snapshot, config), config)

    def test_columns_come_from_the_kernel_when_loaded(self, monkeypatch):
        if _timecore.load() is None:
            pytest.skip("native timing core unavailable")
        calls = self._count_entry_calls(monkeypatch)
        self._install_under_every_config(timecore=True)
        assert calls == [0, 2, 4]

    def test_forced_off_run_builds_them_in_python(self, monkeypatch):
        _timecore.load()  # loaded or not, a timecore=False run ignores it
        calls = self._count_entry_calls(monkeypatch)
        self._install_under_every_config(timecore=False)
        assert calls == []

    def test_kill_switch_builds_them_in_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMECORE", "0")
        build.forget("timecore")
        try:
            assert _timecore.load() is None
            calls = self._count_entry_calls(monkeypatch)
            self._install_under_every_config(timecore=True)
            assert calls == []
        finally:
            build.forget("timecore")
