"""Shared fixtures for the benchmark harness.

Every figure benchmark runs its registered experiment through
:func:`repro.experiments.run_experiments` over the full twenty-benchmark
sweep of the paper's evaluation.  The :class:`SweepEngine` is shared
(session scope) so that configurations used by several figures (e.g. the
ISA-assisted run appears in Figures 7, 8, 9, 10 and 11) are simulated once —
and, thanks to the persistent result cache, at most once *ever* per
(configuration, scale): warm reruns of the harness skip straight to the
reports.

Environment knobs:

* ``REPRO_BENCH_INSTRUCTIONS`` — dynamic macro instructions per benchmark per
  configuration (default 8000, the scale the reproduction was calibrated at),
* ``REPRO_BENCH_WORKERS`` — worker processes for the sweep engine (default
  1 = serial; parallel runs produce identical results),
* ``REPRO_BENCH_CACHE`` — result-cache directory; ``0`` disables caching
  (default: ``benchmarks/.cache``).
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.common import ExperimentSettings  # noqa: E402
from repro.sim.cache import ResultCache  # noqa: E402
from repro.sim.engine import SweepEngine  # noqa: E402

DEFAULT_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "8000"))
DEFAULT_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
DEFAULT_CACHE_DIR = os.environ.get(
    "REPRO_BENCH_CACHE", os.path.join(os.path.dirname(__file__), ".cache"))


@pytest.fixture(scope="session")
def settings():
    return ExperimentSettings(instructions=DEFAULT_INSTRUCTIONS)


@pytest.fixture(scope="session")
def engine():
    cache = None
    if DEFAULT_CACHE_DIR and DEFAULT_CACHE_DIR != "0":
        cache = ResultCache(DEFAULT_CACHE_DIR)
    engine = SweepEngine(workers=DEFAULT_WORKERS, cache=cache)
    yield engine
    engine.close()
