"""Benchmark entry point.

    python3 perfbench/run.py --workload suite --seed 7 --seconds 25 --trace 0

Runs measured passes of one workload, each in a fresh process
(``worker.py``), until ``--seconds`` have elapsed and at least two passes
are done.  With ``--trace 1`` one more pass runs under the span recorder.
Human-readable lines come first; the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics (medians over the passes) with ``--trace 0`` or the
per-layer metrics of the traced pass with ``--trace 1``.

Run from the root of a checkout; the program is imported from ``src/``.
Build artifacts (native kernels), the scratch result caches and the Chrome
trace go to ``.bench_build/perfbench/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracing import PER_LAYER_UNITS  # noqa: E402

BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("suite", "paper-stream", "long-sampled")
MIN_PASSES = 2
#: Extra set-up-only processes per run, so ``setup_s`` is a median of many.
SETUP_PROBES = 6
#: Passes still running this long after the kernels are loaded are killed
#: and the run fails, so a run ends within three minutes.
RUN_BUDGET_S = 170
#: Loading the kernels may compile them (first run in a checkout).
BUILD_TIMEOUT_S = 600

#: End-to-end metric -> unit (also in ``BENCHMARK.json``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "timed_uops_per_s": "1/s",
    "horizon_instr_per_s": "1/s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class PassFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    """The parent environment minus ``REPRO_*`` knobs, plus kernel caches.

    A fixed hash seed keeps set and dict orders, and so the work done, the
    same in every pass."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    kernels = str(BUILD / "kernels")
    env.update(REPRO_TIMECORE_DIR=kernels, REPRO_FFCORE_DIR=kernels,
               PYTHONHASHSEED="0")
    return env


def run_worker(arguments: List[str], timeout: float) -> Dict[str, object]:
    command = [sys.executable, str(HERE / "worker.py"), *arguments]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"out of time: {arguments}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise PassFailed(f"worker exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def run_pass(workload: str, seed: int, deadline: float,
             *extra: str) -> Dict[str, object]:
    """Run one worker; ``setup_s`` is spawn to the start of its timed region."""
    spawned = time.time()
    record = run_worker(["--workload", workload, "--seed", str(seed),
                         "--scratch", str(BUILD), *extra],
                        timeout=deadline - time.monotonic())
    record["setup_s"] = record["entered_epoch_s"] - spawned
    return record


def pass_metrics(record: Dict[str, object]) -> Dict[str, float]:
    wall = record["wall_s"]
    return {
        "setup_s": record["setup_s"],
        "wall_s": wall,
        "timed_uops_per_s": record["total_uops"] / wall,
        "horizon_instr_per_s": record["horizon_instructions"] / wall,
        "cells_per_s": record["simulated_cells"] / wall,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def problems(records: List[Dict[str, object]]) -> List[str]:
    """Why the run's outputs are wrong (empty when they are correct)."""
    found = []
    digests = {record["model_digest"] for record in records}
    if len(digests) != 1:
        found.append(f"model_digest differs between passes: {sorted(digests)}")
    for record in records:
        if record["cell_failures"]:
            found.append(f"{record['cell_failures']} quarantined cell(s)")
        if record.get("oracle_ok") is False:
            found.append(f"oracle mismatch: {record['oracle']}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2

    try:
        kernels = run_worker(["--warm-kernels"], timeout=BUILD_TIMEOUT_S)
        deadline = time.monotonic() + RUN_BUDGET_S
        records: List[Dict[str, object]] = []
        started = time.perf_counter()
        while len(records) < MIN_PASSES \
                or time.perf_counter() - started < args.seconds:
            # The oracle replay runs once, after the first pass.
            extra = ("--no-oracle",) if records else ()
            records.append(run_pass(args.workload, args.seed, deadline,
                                    *extra))
        setups = [run_pass(args.workload, args.seed, deadline,
                           "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        traced = None
        if args.trace:
            trace_file = BUILD / f"trace-{args.workload}-seed{args.seed}.json"
            traced = run_pass(args.workload, args.seed, deadline,
                              "--no-oracle", "--trace", str(trace_file))
    except PassFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    everything = records + ([traced] if traced else [])
    found = problems(everything)
    attempted = sum(record["unique_cells"] for record in everything) + 1
    failed = sum(record["cell_failures"] for record in everything) \
        + (0 if records[0]["oracle_ok"] else 1)

    per_pass = [pass_metrics(record) for record in records]
    samples = {name: [metrics[name] for metrics in per_pass]
               for name in END_TO_END_UNITS}
    samples["setup_s"] += setups
    first = records[0]
    print(f"[perfbench] {args.workload} seed {args.seed}: {len(records)} "
          f"passes{' + 1 traced' if traced else ''}, kernels {kernels}")
    print(f"[perfbench] model_digest {first['model_digest']}; "
          f"{first['unique_cells']} unique of {first['grid_cells']} grid "
          f"cells; {first['horizon_instructions']} horizon instructions; "
          f"{first['total_uops']} timed uops")
    print(f"[perfbench] oracle {'ok' if first['oracle_ok'] else 'MISMATCH'}: "
          f"{first['oracle']}")
    print(f"[perfbench] paper checks outside tolerance: "
          f"{first['paper_checks_failed']}; paper_err_pp "
          f"{first['paper_err_pp']:.4g} pp over {first['percent_checks']} "
          f"checks (simulated vs published figures, no hardware reference)")
    for name, values in samples.items():
        print(f"[perfbench] {name:<20} p50 {statistics.median(values):.6g} "
              f"p75 {statistics.quantiles(values, n=4)[2]:.6g} n={len(values)}")
    for problem in found:
        print(f"[perfbench] INCORRECT: {problem}")

    if traced:
        layers = dict(traced["layers"])
        untraced = statistics.median(samples["wall_s"])
        layers["trace.overhead_frac"] = traced["wall_s"] / untraced - 1
        for name, value in layers.items():
            print(f"[perfbench] layer {name:<34} {value:.6g}")
        print(f"[perfbench] chrome trace: {trace_file}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": statistics.median(samples[name]),
                          "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": not found, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
