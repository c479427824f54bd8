"""Workloads: SPEC-like synthetic benchmarks, the Juliet-style suite, attacks.

* :mod:`repro.workloads.profiles` — per-benchmark characteristics for the
  twenty C SPEC benchmarks the paper evaluates (§9.1),
* :mod:`repro.workloads.state_core` — the generator's state-evolution core:
  object set, RNG stream and locality cursors, over which it runs the
  optional native kernel in :mod:`repro.workloads._ffcore` (the §9.1
  fast-forward fast path),
* :mod:`repro.workloads.heap` — the workload heap: DL-malloc placement and
  LIFO lock locations in flat arrays the kernel updates in place,
* :mod:`repro.workloads.synthetic` — the trace-emission layer on top of the
  core: the synthetic dynamic-trace generator driven by those profiles (the
  SPEC substitute, see DESIGN.md §1),
* :mod:`repro.workloads.juliet` — generator for the 291 CWE-416/562
  use-after-free cases modelled on the NIST Juliet suite (§9.2), plus benign
  twins used to confirm the absence of false positives,
* :mod:`repro.workloads.attacks` — end-to-end exploit scenarios (heap UAF
  with reallocation, stack UAF, double free, buffer overflow) used by the
  examples and the security tests.
"""

from repro.workloads.profiles import BenchmarkProfile, SPEC_PROFILES, profile_by_name
from repro.workloads.state_core import WorkloadCore
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.juliet import JulietSuite, JulietCase
from repro.workloads.attacks import AttackScenario, all_attack_scenarios

__all__ = [
    "BenchmarkProfile",
    "SPEC_PROFILES",
    "profile_by_name",
    "WorkloadCore",
    "SyntheticWorkload",
    "JulietSuite",
    "JulietCase",
    "AttackScenario",
    "all_attack_scenarios",
]
