"""Every ``repro bench`` cell at test scale, through :func:`run_bench`.

The real cells run for minutes; here each :data:`CELLS` row keeps its
function and gates but takes test-scale arguments, so the record layout the
gates and the summary read is checked on every run.
"""

import pytest

from repro.sim import bench
from repro.sim.sampling import SamplingConfig

SMALL = SamplingConfig(fast_forward=2000, warmup=500, sample=1500)

#: Test-scale arguments per row; same argument names as the row's own.
TEST_SCALE = {
    "compiled": dict(benchmarks=("gzip", "mcf"), instructions=1_500),
    "sampled": dict(benchmark="mcf-long", instructions=20_000,
                    sampling=SMALL),
    "fast_forward": dict(benchmark="mcf-long", ops=200_000),
    "emit": dict(benchmark="mcf-long", ops=200_000),
    "paper_sampled": dict(benchmark="mcf-paper", instructions=20_000,
                          sampling=SMALL),
    "suite": {},
    "mix": dict(mix="mix1", instructions=1_000),
    "one_b": dict(benchmark="mcf-1b", instructions=60_000, sampling=SMALL),
}

#: Each gated throughput: (record or args field it counts, and the phase
#: whose seconds it divides by, or ``None`` for the cell's wall seconds).
RATES = {
    ("compiled", "uops_per_sec"): ("total_uops", None),
    ("compiled", "kernel_uops_per_sec"): ("total_uops", "simulate"),
    ("compiled", "compile_uops_per_sec"): ("total_uops", "compile"),
    ("sampled", "uops_per_sec"): ("timed_uops", "simulate"),
    ("fast_forward", "fast_forward_ops_per_sec"): ("ops", None),
    ("emit", "emit_ops_per_sec"): ("ops", None),
    ("paper_sampled", "uops_per_sec"): ("timed_uops", "simulate"),
    ("suite", "suite_cells_per_sec"): ("simulated_cells", None),
    ("mix", "mix_uops_per_sec"): ("total_uops", "simulate"),
    ("one_b", "one_b_ops_per_sec"): ("instructions", None),
}


@pytest.fixture(scope="module")
def record():
    cells = tuple(cell._replace(args=TEST_SCALE[cell.key])
                  for cell in bench.CELLS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "CELLS", cells)
        return bench.run_bench(seed=7)


def test_test_scale_rows_match_the_real_rows():
    assert list(TEST_SCALE) == [cell.key for cell in bench.CELLS]
    for cell in bench.CELLS:
        assert TEST_SCALE[cell.key].keys() == cell.args.keys(), cell.key


@pytest.mark.parametrize("cell", bench.CELLS, ids=lambda cell: cell.key)
def test_record_carries_every_gated_key(record, cell):
    stats = record[cell.key]
    for gate in cell.gates:
        if gate.record_key == "peak_rss_mb" and bench.peak_rss_mb() is None:
            continue
        assert stats[gate.record_key] > 0, (cell.key, gate.label)


@pytest.mark.parametrize("cell", bench.CELLS, ids=lambda cell: cell.key)
def test_phases_partition_the_wall_time(record, cell):
    stats = record[cell.key]
    assert stats["wall_seconds"] > 0
    assert sum(stats["phases_seconds"].values()) == \
        pytest.approx(stats["wall_seconds"], rel=0.05)


@pytest.mark.parametrize("cell,figure", RATES,
                         ids=["/".join(key) for key in RATES])
def test_gated_rate_divides_its_numerator_by_its_interval(
        record, cell, figure):
    stats = record[cell]
    field, phase = RATES[cell, figure]
    work = stats[field] if field in stats else stats["args"][field]
    seconds = stats["phases_seconds"][phase] if phase \
        else stats["wall_seconds"]
    assert stats[figure] == pytest.approx(work / seconds, rel=0.01)


def test_every_gated_rate_is_pinned():
    gated = {(cell.key, gate.record_key) for cell in bench.CELLS
             for gate in cell.gates if not gate.ceiling}
    assert gated == set(RATES)


def test_summary_prints_one_line_per_row_present(record):
    def rows(text):
        return [line.split(":")[0].strip() for line in text.splitlines()
                if line.split(":")[0].strip() in TEST_SCALE]

    assert rows(bench.format_summary(record)) == list(TEST_SCALE)
    partial = {key: value for key, value in record.items()
               if key not in ("suite", "one_b")}
    assert rows(bench.format_summary(partial)) == \
        [key for key in TEST_SCALE if key not in ("suite", "one_b")]
