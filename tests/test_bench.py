"""The ``repro bench`` gates, pinned as data.

``GATES`` lists every floor and the RSS ceiling of
``benchmarks/perf_baseline.json`` by hand.  The tests hold
:func:`check_against_baseline` to that list: a gate cannot change its value,
tolerance, keys or direction, and a number added to the baseline file cannot
go ungated, without a test here failing.
"""

import json
from pathlib import Path

import pytest

from repro.sim.bench import check_against_baseline

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "benchmarks" / "perf_baseline.json"
RECORD = ROOT / "BENCH_cd758ba.json"
TOLERANCE = 0.30

#: (label, record cell, baseline key, record key within the cell, ceiling?)
GATES = (
    ("matrix", "compiled", "uops_per_sec", "uops_per_sec", False),
    ("sampled", "sampled", "sampled_uops_per_sec", "uops_per_sec", False),
    ("fast_forward", "fast_forward", "fast_forward_ops_per_sec",
     "fast_forward_ops_per_sec", False),
    ("emit", "emit", "emit_ops_per_sec", "emit_ops_per_sec", False),
    ("paper_sampled", "paper_sampled", "paper_sampled_uops_per_sec",
     "uops_per_sec", False),
    ("suite", "suite", "suite_cells_per_sec", "suite_cells_per_sec", False),
    ("timecore", "timecore", "kernel_uops_per_sec", "kernel_uops_per_sec",
     False),
    ("compile", "timecore", "compile_uops_per_sec", "compile_uops_per_sec",
     False),
    ("mix", "mix", "mix_uops_per_sec", "mix_uops_per_sec", False),
    ("one_b", "one_b", "one_b_ops_per_sec", "one_b_ops_per_sec", False),
    ("one_b_rss", "one_b", "one_b_peak_rss_mb", "peak_rss_mb", True),
)
FLOORS = [gate for gate in GATES if not gate[4]]

#: What the gates say about the committed cd758ba record, which predates
#: the emit and 1B cells.
PINNED_MESSAGE = (
    "matrix: measured 369,341 uops/sec vs baseline 40,000 (floor 28,000, "
    "tolerance 30%): OK; "
    "sampled: measured 277,247 uops/sec vs baseline 30,000 (floor 21,000, "
    "tolerance 30%): OK; "
    "fast_forward: measured 12,421,110 ops/sec vs baseline 9,500,000 "
    "(floor 6,650,000, tolerance 30%): OK; "
    "paper_sampled: measured 541,180 uops/sec vs baseline 30,000 "
    "(floor 21,000, tolerance 30%): OK; "
    "suite: measured 30 cells/sec vs baseline 8 (floor 6, tolerance 30%): OK; "
    "timecore: measured 3,289,590 uops/sec vs baseline 1,200,000 "
    "(floor 840,000, tolerance 30%): OK; "
    "compile: measured 1,180,398 uops/sec vs baseline 1,000,000 "
    "(floor 700,000, tolerance 30%): OK; "
    "mix: measured 113,856 uops/sec vs baseline 14,000 (floor 9,800, "
    "tolerance 30%): OK; "
    "emit: SKIPPED (no emit cell in record); "
    "one_b: SKIPPED (no one_b cell in record); "
    "one_b_rss: SKIPPED (no one_b cell in record)")


def _baseline():
    return json.loads(BASELINE.read_text(encoding="utf-8"))


def _record_with_late_cells():
    """The committed record plus the cells it predates."""
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    record["emit"] = {"emit_ops_per_sec": 5_000_000.0}
    record["one_b"] = {"one_b_ops_per_sec": 10_000_000.0, "peak_rss_mb": 200.0}
    return record


def _part(message, label):
    parts = [part for part in message.split("; ")
             if part.startswith(f"{label}: ")]
    assert len(parts) == 1, message
    return parts[0]


def _failing(message):
    return [part for part in message.split("; ")
            if part.endswith(("REGRESSION", "EXCEEDED"))]


def test_committed_record_passes_with_the_pinned_message():
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert check_against_baseline(record, str(BASELINE)) == \
        (True, PINNED_MESSAGE)


@pytest.mark.parametrize("label,cell,baseline_key,record_key,ceiling",
                         FLOORS, ids=[gate[0] for gate in FLOORS])
def test_floor_passes_at_the_floor_and_fails_one_unit_under(
        label, cell, baseline_key, record_key, ceiling):
    floor = _baseline()[baseline_key] * (1.0 - TOLERANCE)
    record = _record_with_late_cells()
    record[cell][record_key] = floor
    ok, message = check_against_baseline(record, str(BASELINE))
    assert ok, message
    assert _part(message, label).endswith(": OK")
    record[cell][record_key] = floor - 1
    ok, message = check_against_baseline(record, str(BASELINE))
    assert not ok
    assert _failing(message) == [_part(message, label)]
    assert _part(message, label).endswith(": REGRESSION")


def test_rss_ceiling_passes_at_the_ceiling_and_fails_over_it():
    ceiling = _baseline()["one_b_peak_rss_mb"]
    assert ceiling == 2048
    record = _record_with_late_cells()
    record["one_b"]["peak_rss_mb"] = float(ceiling)
    ok, message = check_against_baseline(record, str(BASELINE))
    assert ok, message
    assert _part(message, "one_b_rss").endswith(": OK")
    record["one_b"]["peak_rss_mb"] = ceiling + 1.0
    ok, message = check_against_baseline(record, str(BASELINE))
    assert not ok
    assert _failing(message) == [_part(message, "one_b_rss")]
    assert _part(message, "one_b_rss").endswith(": EXCEEDED")


def test_every_baseline_number_is_listed_exactly_once():
    numbers = sorted(key for key, value in _baseline().items()
                     if isinstance(value, (int, float)))
    assert sorted(gate[2] for gate in GATES) == numbers


@pytest.mark.parametrize("label,cell,baseline_key,record_key,ceiling",
                         GATES, ids=[gate[0] for gate in GATES])
def test_each_baseline_number_is_read_by_its_gate_alone(
        tmp_path, label, cell, baseline_key, record_key, ceiling):
    data = _baseline()
    del data[baseline_key]
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    if label == "matrix":
        # The matrix floor is mandatory: a baseline without it is unreadable.
        with pytest.raises(KeyError):
            check_against_baseline(_record_with_late_cells(), str(path))
        return
    ok, message = check_against_baseline(_record_with_late_cells(), str(path))
    assert ok, message
    assert [part.split(": ")[0] for part in message.split("; ")] == \
        [gate[0] for gate in GATES if gate[0] != label]
