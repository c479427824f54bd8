"""Tests of the benchmark itself: span arithmetic, tracer hygiene, names,
and failure accounting.  Run with ``python -m pytest perfbench/tests -q``."""

import json
import re
from pathlib import Path

import pytest

from perfbench import run as bench_run
from perfbench import tracing
from perfbench.workloads import (
    WORKLOADS,
    Workload,
    oracle_cell,
    oracle_sample,
    run_pass,
)
from repro.experiments.common import ExperimentSettings
from repro.sim import engine as engine_module
from repro.sim import simulator as simulator_module
from repro.sim.faults import FaultPlan
from repro.sim.sampling import SamplingConfig
from repro.sim.spec import ResiliencePolicy
from repro.workloads.bundle import TraceBundle
from repro.workloads.synthetic import SyntheticWorkload

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = Workload(
    name="tiny", experiments=("fig7",),
    settings=lambda seed: ExperimentSettings(
        benchmarks=("gzip", "mcf"), instructions=2_000, seed=seed),
    oracle=oracle_cell)

TINY_SAMPLED = Workload(
    name="tiny-sampled", experiments=("fig7",),
    settings=lambda seed: ExperimentSettings(
        benchmarks=("mcf-long",), instructions=200_000, seed=seed,
        sampling=SamplingConfig.quick()),
    oracle=oracle_sample)


@pytest.fixture(autouse=True)
def fresh_bundle_memo():
    """Each pass starts as a fresh process would: no memoized bundles."""
    engine_module._BUNDLES.clear()
    yield
    engine_module._BUNDLES.clear()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    recorder = tracing.SpanRecorder(clock=clock)
    outer = recorder.open("engine")             # 0 .. 10
    clock.now = 1.0
    child = recorder.open("compiled.compile")   # 1 .. 6
    clock.now = 2.0
    grandchild = recorder.open("compiled.compile")  # 2 .. 4 (same layer)
    clock.now = 4.0
    recorder.close(grandchild)
    clock.now = 6.0
    recorder.close(child)
    clock.now = 7.0
    sibling = recorder.open("core.simulate")    # 7 .. 9
    clock.now = 9.0
    recorder.close(sibling)
    clock.now = 10.0
    recorder.close(outer)

    own = tracing.self_times(recorder.spans)
    assert own[outer.id] == pytest.approx(10 - 5 - 2)
    assert own[child.id] == pytest.approx(5 - 2)
    assert own[grandchild.id] == pytest.approx(2)
    totals = tracing.layer_totals(recorder.spans)
    assert totals["compiled.compile"].self_s == pytest.approx(5)
    assert totals["compiled.compile"].calls == 2
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10)
    assert grandchild.parent == child.id and child.parent == outer.id


def test_spans_closed_out_of_order_are_rejected():
    recorder = tracing.SpanRecorder()
    outer = recorder.open("a")
    recorder.open("b")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tracing.tail_percentile(5) == 50
    assert tracing.tail_percentile(40) == 75
    assert tracing.tail_percentile(100) == 90
    assert tracing.tail_percentile(1000) == 99
    assert tracing.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0


def _entry_points():
    return (SyntheticWorkload.fast_forward, SyntheticWorkload.emit,
            TraceBundle.__dict__["generate"],
            engine_module.execute_job, engine_module.aggregate_outcomes,
            simulator_module.aggregate_outcomes)


def test_traced_pass_restores_wrappers_and_keeps_the_digest(tmp_path):
    before = _entry_points()
    trace_file = tmp_path / "trace.json"
    traced = run_pass(TINY, 7, tmp_path, trace_path=trace_file)
    after = _entry_points()
    engine_module._BUNDLES.clear()
    untraced = run_pass(TINY, 7, tmp_path)
    assert all(a is b for a, b in zip(before, after))
    assert engine_module.aggregate_outcomes is \
        simulator_module.aggregate_outcomes

    assert traced["model_digest"] == untraced["model_digest"]
    assert untraced["oracle_ok"] and traced["oracle_ok"]
    layers = traced["layers"]
    assert layers["trace.coverage"] >= 0.95
    assert layers["compiled.compile_s"] > 0 and layers["core.simulate_s"] > 0
    assert layers["native.load_s"] > 0
    assert 0 < layers["compiled.stream_cache_hit_ratio"] < 1
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert {event["ph"] for event in events} == {"X"}
    assert any(event["cat"] == "engine.job" for event in events)


def test_sampled_pass_traces_fast_forward_and_passes_the_oracle(tmp_path):
    record = run_pass(TINY_SAMPLED, 11, tmp_path,
                      trace_path=tmp_path / "trace.json")
    assert record["oracle_ok"], record["oracle"]
    assert record["layers"]["workloads.fast_forward_ops_per_s"] > 0
    assert record["layers"]["simulator.aggregate_s"] > 0


def test_second_seed_is_clean_and_repeatable(tmp_path):
    first = run_pass(TINY, 11, tmp_path)
    second = run_pass(TINY, 11, tmp_path)
    other = run_pass(TINY, 7, tmp_path)
    assert first["cell_failures"] == 0 and first["oracle_ok"]
    assert first["model_digest"] == second["model_digest"]
    assert first["model_digest"] != other["model_digest"]


def test_injected_crash_is_counted_not_fatal(tmp_path):
    record = run_pass(TINY, 7, tmp_path, oracle=False, engine_kwargs={
        "faults": FaultPlan.parse("crash:gzip:0"),
        "policy": ResiliencePolicy(retries=0)})
    failed_frac = record["cell_failures"] / record["unique_cells"]
    assert failed_frac > 0
    assert record["unique_cells"] > record["cell_failures"]
    assert any("quarantined" in problem
               for problem in bench_run.problems([record]))


def test_names_match_the_benchmark_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(WORKLOADS) == list(bench_run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.PER_LAYER_UNITS
    names = workloads + list(bench_run.END_TO_END_UNITS) \
        + list(tracing.PER_LAYER_UNITS)
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
