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

from repro.sim.bench import check_against_baseline, load_baseline

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "benchmarks" / "perf_baseline.json"
RECORD = ROOT / "BENCH_58598d9.json"
TOLERANCE = 0.30

#: (label, record cell, baseline key, record key within the cell, ceiling?)
GATES = (
    ("matrix", "compiled", "uops_per_sec", "uops_per_sec", False),
    ("timecore", "compiled", "kernel_uops_per_sec", "kernel_uops_per_sec",
     False),
    ("compile", "compiled", "compile_uops_per_sec", "compile_uops_per_sec",
     False),
    ("sampled", "sampled", "sampled_uops_per_sec", "uops_per_sec", False),
    ("fast_forward", "fast_forward", "fast_forward_ops_per_sec",
     "fast_forward_ops_per_sec", False),
    ("emit", "emit", "emit_ops_per_sec", "emit_ops_per_sec", False),
    ("paper_sampled", "paper_sampled", "paper_sampled_uops_per_sec",
     "uops_per_sec", False),
    ("suite", "suite", "suite_cells_per_sec", "suite_cells_per_sec", False),
    ("mix", "mix", "mix_uops_per_sec", "mix_uops_per_sec", False),
    ("one_b", "one_b", "one_b_ops_per_sec", "one_b_ops_per_sec", False),
    ("one_b_rss", "one_b", "one_b_peak_rss_mb", "peak_rss_mb", True),
)
FLOORS = [gate for gate in GATES if not gate[4]]

#: What the gates say about the committed 58598d9 record, which has every
#: cell.  Its separate ``timecore`` entry, from before that cell was folded
#: into ``compiled``, is read by no gate.
PINNED_MESSAGE = (
    "matrix: measured 3,694,588 uops/sec vs baseline 40,000 (floor 28,000, "
    "tolerance 30%): OK; "
    "timecore: measured 6,630,619 uops/sec vs baseline 1,200,000 "
    "(floor 840,000, tolerance 30%): OK; "
    "compile: measured 11,072,664 uops/sec vs baseline 1,000,000 "
    "(floor 700,000, tolerance 30%): OK; "
    "sampled: measured 2,108,180 uops/sec vs baseline 30,000 (floor 21,000, "
    "tolerance 30%): OK; "
    "fast_forward: measured 29,369,572 ops/sec vs baseline 9,500,000 "
    "(floor 6,650,000, tolerance 30%): OK; "
    "emit: measured 13,965,012 ops/sec vs baseline 4,500,000 "
    "(floor 3,150,000, tolerance 30%): OK; "
    "paper_sampled: measured 2,027,454 uops/sec vs baseline 30,000 "
    "(floor 21,000, tolerance 30%): OK; "
    "suite: measured 136 cells/sec vs baseline 8 (floor 6, tolerance 30%): "
    "OK; "
    "mix: measured 3,193,459 uops/sec vs baseline 14,000 (floor 9,800, "
    "tolerance 30%): OK; "
    "one_b: measured 26,401,750 ops/sec vs baseline 8,500,000 "
    "(floor 5,950,000, tolerance 30%): OK; "
    "one_b_rss: measured 108 MB vs ceiling 2,048 (no tolerance): OK")


def _baseline():
    return load_baseline(str(BASELINE))


def _record():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def _part(message, label):
    parts = [part for part in message.split("; ")
             if part.startswith(f"{label}: ")]
    assert len(parts) == 1, message
    return parts[0]


def _failing(message):
    return [part for part in message.split("; ")
            if part.endswith(("REGRESSION", "EXCEEDED"))]


def test_committed_record_passes_with_the_pinned_message():
    assert check_against_baseline(_record(), _baseline()) == \
        (True, PINNED_MESSAGE)


@pytest.mark.parametrize("label,cell,baseline_key,record_key,ceiling",
                         FLOORS, ids=[gate[0] for gate in FLOORS])
def test_floor_passes_at_the_floor_and_fails_one_unit_under(
        label, cell, baseline_key, record_key, ceiling):
    floor = _baseline()[baseline_key] * (1.0 - TOLERANCE)
    record = _record()
    record[cell][record_key] = floor
    ok, message = check_against_baseline(record, _baseline())
    assert ok, message
    assert _part(message, label).endswith(": OK")
    record[cell][record_key] = floor - 1
    ok, message = check_against_baseline(record, _baseline())
    assert not ok
    assert _failing(message) == [_part(message, label)]
    assert _part(message, label).endswith(": REGRESSION")


def test_gates_without_a_figure_are_skipped():
    record = _record()
    del record["one_b"]["peak_rss_mb"]
    ok, message = check_against_baseline(record, _baseline())
    assert ok, message
    assert _part(message, "one_b_rss") == \
        "one_b_rss: SKIPPED (peak_rss_mb unavailable on this platform)"
    del record["one_b"]
    ok, message = check_against_baseline(record, _baseline())
    assert ok, message
    assert [_part(message, label) for label in ("one_b", "one_b_rss")] == \
        ["one_b: SKIPPED (no one_b cell in record)",
         "one_b_rss: SKIPPED (no one_b cell in record)"]


def test_rss_ceiling_passes_at_the_ceiling_and_fails_over_it():
    ceiling = _baseline()["one_b_peak_rss_mb"]
    assert ceiling == 2048
    record = _record()
    record["one_b"]["peak_rss_mb"] = float(ceiling)
    ok, message = check_against_baseline(record, _baseline())
    assert ok, message
    assert _part(message, "one_b_rss").endswith(": OK")
    record["one_b"]["peak_rss_mb"] = ceiling + 1.0
    ok, message = check_against_baseline(record, _baseline())
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
            load_baseline(str(path))
        return
    ok, message = check_against_baseline(_record(), load_baseline(str(path)))
    assert ok, message
    assert [part.split(": ")[0] for part in message.split("; ")] == \
        [gate[0] for gate in GATES if gate[0] != label]
