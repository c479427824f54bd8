"""Per-benchmark workload profiles.

The paper evaluates twenty C SPEC benchmarks (§9.1).  Since the benchmarks
themselves cannot be executed here, each is represented by a profile
describing the dynamic characteristics that determine Watchdog's overhead:

* how memory-intensive the benchmark is (fraction of instructions that are
  loads/stores) and how its accesses are sized/typed,
* how many of those accesses are 64-bit integer accesses (what conservative
  identification must treat as pointer operations, §5.1) and how many
  actually move pointers (what ISA-assisted identification marks, §5.2) —
  these per-benchmark fractions are calibrated to Figure 5,
* allocation and call intensity (identifier management work),
* working-set size and access locality (cache behaviour of data, shadow and
  lock accesses),
* branch density and misprediction rate (baseline ILP).

The numbers are approximations of each benchmark's published behaviour
chosen so the reproduction exhibits the same *pattern* across benchmarks as
the paper's figures: pointer-dense integer codes (mcf, gcc, perl, twolf)
incur the largest overheads while float-heavy array codes (lbm, milc, art,
equake) incur little.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BenchmarkProfile:
    """Dynamic characteristics of one SPEC-like benchmark."""

    name: str
    #: Fraction of dynamic instructions that access memory.
    memory_fraction: float
    #: Of the memory accesses, fraction that are loads (rest are stores).
    load_fraction: float
    #: Of the memory accesses, fraction that are 64-bit integer accesses
    #: (conservative pointer candidates, Figure 5 left bars).
    word_integer_fraction: float
    #: Of the memory accesses, fraction that actually move pointers
    #: (ISA-assisted classification, Figure 5 right bars).
    pointer_fraction: float
    #: Of the memory accesses, fraction that are floating-point.
    fp_access_fraction: float
    #: Fraction of non-memory instructions that are floating-point arithmetic.
    fp_compute_fraction: float
    #: Fraction of dynamic instructions that are conditional branches.
    branch_fraction: float
    #: Branch misprediction rate.
    mispredict_rate: float
    #: Function calls per 1000 instructions.
    calls_per_kilo: float
    #: Heap allocations per 1000 instructions.
    allocs_per_kilo: float
    #: Typical allocation size in bytes.
    typical_alloc_bytes: int
    #: Number of live allocations forming the working set.
    working_set_objects: int
    #: Probability that a memory access hits the recently-touched hot subset.
    temporal_locality: float
    #: Probability that a memory access continues a sequential stride.
    spatial_locality: float

    def __post_init__(self) -> None:
        fractions = (self.memory_fraction, self.load_fraction, self.pointer_fraction,
                     self.word_integer_fraction, self.fp_access_fraction,
                     self.branch_fraction, self.mispredict_rate,
                     self.temporal_locality, self.spatial_locality)
        if any(not 0.0 <= value <= 1.0 for value in fractions):
            raise ConfigurationError(f"profile {self.name}: fractions must be in [0,1]")
        if self.pointer_fraction > self.word_integer_fraction:
            raise ConfigurationError(
                f"profile {self.name}: pointer accesses cannot exceed word-integer accesses")


def _p(name: str, mem: float, load: float, word: float, ptr: float, fp_acc: float,
       fp_cmp: float, br: float, misp: float, calls: float, allocs: float,
       alloc_bytes: int, objects: int, temporal: float, spatial: float) -> BenchmarkProfile:
    return BenchmarkProfile(
        name=name, memory_fraction=mem, load_fraction=load,
        word_integer_fraction=word, pointer_fraction=ptr, fp_access_fraction=fp_acc,
        fp_compute_fraction=fp_cmp, branch_fraction=br, mispredict_rate=misp,
        calls_per_kilo=calls, allocs_per_kilo=allocs, typical_alloc_bytes=alloc_bytes,
        working_set_objects=objects, temporal_locality=temporal, spatial_locality=spatial)


#: The twenty benchmarks of §9.1, ordered as the figures list them.
SPEC_PROFILES: Tuple[BenchmarkProfile, ...] = (
    # name      mem   load  word  ptr   fpacc fpcmp br    misp  calls allocs bytes objs  temp  spat
    _p("lbm",    0.38, 0.62, 0.07, 0.03, 0.70, 0.55, 0.04, 0.01, 0.2,  0.01,  4096, 512,  0.45, 0.95),
    _p("comp",   0.27, 0.68, 0.17, 0.07, 0.02, 0.05, 0.14, 0.05, 0.6,  0.05,  256,  96,   0.93, 0.85),
    _p("gzip",   0.29, 0.66, 0.19, 0.08, 0.01, 0.04, 0.15, 0.06, 0.8,  0.05,  512,  96,   0.93, 0.85),
    _p("milc",   0.36, 0.64, 0.12, 0.05, 0.65, 0.50, 0.05, 0.02, 0.5,  0.02,  2048, 512,  0.50, 0.92),
    _p("bzip2",  0.30, 0.65, 0.21, 0.11, 0.01, 0.03, 0.15, 0.07, 0.7,  0.04,  1024, 96,   0.90, 0.85),
    _p("ammp",   0.34, 0.66, 0.26, 0.15, 0.40, 0.35, 0.09, 0.03, 1.5,  0.20,  192,  384,  0.86, 0.78),
    _p("go",     0.27, 0.70, 0.33, 0.19, 0.00, 0.02, 0.18, 0.09, 2.5,  0.10,  128,  192,  0.92, 0.72),
    _p("sjeng",  0.26, 0.69, 0.32, 0.17, 0.00, 0.02, 0.18, 0.09, 3.0,  0.08,  128,  192,  0.92, 0.72),
    _p("equake", 0.36, 0.65, 0.24, 0.13, 0.45, 0.40, 0.08, 0.03, 1.0,  0.30,  512,  384,  0.80, 0.86),
    _p("h264",   0.34, 0.64, 0.31, 0.17, 0.10, 0.15, 0.12, 0.05, 2.0,  0.15,  512,  160,  0.90, 0.85),
    _p("ijpeg",  0.30, 0.64, 0.26, 0.15, 0.05, 0.10, 0.12, 0.04, 1.5,  0.12,  768,  160,  0.88, 0.86),
    _p("gobmk",  0.28, 0.69, 0.36, 0.21, 0.00, 0.02, 0.19, 0.10, 3.0,  0.12,  160,  256,  0.90, 0.70),
    _p("art",    0.33, 0.66, 0.14, 0.07, 0.55, 0.45, 0.07, 0.02, 0.5,  0.05,  2048, 448,  0.55, 0.90),
    _p("twolf",  0.30, 0.68, 0.45, 0.29, 0.05, 0.08, 0.16, 0.08, 2.5,  0.40,  96,   512,  0.86, 0.62),
    _p("hmmer",  0.37, 0.63, 0.29, 0.16, 0.02, 0.05, 0.10, 0.03, 1.0,  0.10,  384,  128,  0.92, 0.88),
    _p("vpr",    0.31, 0.67, 0.43, 0.27, 0.08, 0.10, 0.15, 0.07, 2.5,  0.35,  128,  384,  0.87, 0.65),
    _p("mcf",    0.33, 0.70, 0.57, 0.40, 0.00, 0.01, 0.17, 0.09, 1.5,  0.50,  192,  2048, 0.60, 0.50),
    _p("mesa",   0.32, 0.63, 0.29, 0.16, 0.30, 0.30, 0.09, 0.03, 2.0,  0.15,  640,  192,  0.90, 0.84),
    _p("gcc",    0.32, 0.68, 0.52, 0.36, 0.00, 0.02, 0.18, 0.09, 4.0,  0.80,  144,  640,  0.84, 0.62),
    _p("perl",   0.33, 0.67, 0.55, 0.39, 0.00, 0.02, 0.19, 0.08, 5.0,  1.00,  128,  512,  0.85, 0.64),
)

_SPEC_BY_NAME: Dict[str, BenchmarkProfile] = {
    profile.name: profile for profile in SPEC_PROFILES}

#: The long-horizon tiers of four representative §9.1 benchmarks.  A tier
#: row keeps every column of its base benchmark's row above except two: the
#: working set (``working_set_objects``), which grows with the horizon, and
#: ``temporal_locality``, which weakens toward a full reference run's.
#: Each cell is ``(working_set_objects, temporal_locality)``.
_TIER_ROWS: Tuple[Tuple[str, Tuple[int, float], Tuple[int, float],
                        Tuple[int, float]], ...] = (
    # base    -long          -paper          -1b
    ("mcf",  (8192, 0.50), (12288, 0.45), (16384, 0.40)),
    ("gcc",  (4096, 0.75), (6144, 0.72),  (8192, 0.70)),
    ("lbm",  (3072, 0.35), (4096, 0.32),  (6144, 0.30)),
    ("perl", (3072, 0.78), (4608, 0.75),  (6144, 0.72)),
)


def _tier(column: int, suffix: str) -> Tuple[BenchmarkProfile, ...]:
    """The ``<base>-<suffix>`` profiles of one :data:`_TIER_ROWS` column."""
    tier = []
    for row in _TIER_ROWS:
        objects, temporal = row[column]
        tier.append(replace(_SPEC_BY_NAME[row[0]], name=f"{row[0]}-{suffix}",
                            working_set_objects=objects,
                            temporal_locality=temporal))
    return tuple(tier)


#: Dynamic-instruction horizon the long-run profiles are meant to be
#: simulated at.  Unsampled, a horizon this long is intractable for the
#: Python timing model; under the §9.1 periodic schedules only the measure
#: windows are timed, which is what opens these workloads up.
LONG_HORIZON_INSTRUCTIONS = 1_000_000

#: Long-horizon variants of representative §9.1 benchmarks, with working
#: sets sized for a million-instruction execution (far beyond the caches) —
#: over a short trace these never leave their cold-start transient, so they
#: are only meaningful under sampled simulation.  They are deliberately
#: *not* part of :func:`benchmark_names`: the paper's figure grids stay at
#: the calibrated twenty-benchmark scale.
LONG_PROFILES: Tuple[BenchmarkProfile, ...] = _tier(1, "long")

#: Dynamic-instruction horizon of the paper's actual measurement regime
#: (§9.1 simulates billions of instructions per benchmark; 100M per cell is
#: the reproduction's paper-scale operating point).  Only reachable through
#: sampled simulation, which fast-forwards most of it — materializing a
#: horizon this long is out of the question.
PAPER_HORIZON_INSTRUCTIONS = 100_000_000

#: Paper-scale variants: object populations well past every cache level.
#: Like the ``*-long`` profiles they are excluded from
#: :func:`benchmark_names`.
PAPER_PROFILES: Tuple[BenchmarkProfile, ...] = _tier(2, "paper")

#: Dynamic-instruction horizon matching the 1B-instruction regions of
#: interest that full-SPEC sampled-simulation studies standardize on — an
#: order of magnitude past the ``*-paper`` operating point.  Only reachable
#: streaming (:mod:`repro.workloads.streaming`): a retained bundle at this
#: horizon would pin hundreds of raw sample traces, whereas the streaming
#: driver holds exactly one regardless of horizon.
ONE_B_HORIZON_INSTRUCTIONS = 1_000_000_000

#: Billion-instruction variants: working sets another step past the
#: ``*-paper`` populations.  Excluded from :func:`benchmark_names` like the
#: other long-horizon tiers.
ONE_B_PROFILES: Tuple[BenchmarkProfile, ...] = _tier(3, "1b")

_BY_NAME: Dict[str, BenchmarkProfile] = {
    profile.name: profile
    for profile in SPEC_PROFILES + LONG_PROFILES + PAPER_PROFILES
    + ONE_B_PROFILES}


def profile_by_name(name: str) -> BenchmarkProfile:
    """Look up a SPEC-like or long-horizon profile by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ConfigurationError(f"unknown benchmark {name!r}; known: {known}") from None


def benchmark_names() -> List[str]:
    """Benchmark names in the order the paper's figures list them."""
    return [profile.name for profile in SPEC_PROFILES]


def long_profile_names() -> List[str]:
    """Names of the long-horizon profiles (sampled-simulation workloads)."""
    return [profile.name for profile in LONG_PROFILES]


def paper_profile_names() -> List[str]:
    """Names of the paper-scale (100M-horizon) profiles."""
    return [profile.name for profile in PAPER_PROFILES]


def one_b_profile_names() -> List[str]:
    """Names of the billion-instruction (streaming-only) profiles."""
    return [profile.name for profile in ONE_B_PROFILES]


# -- multi-core workload mixes ---------------------------------------------------------

@dataclass(frozen=True)
class WorkloadMix:
    """A multiprogrammed bundle of §9.1 profiles, one per core."""

    name: str
    #: Member profile names in core order (core *i* runs ``members[i]``).
    members: Tuple[str, ...]
    description: str

    def __post_init__(self) -> None:
        for member in self.members:
            if member not in _BY_NAME:
                raise ConfigurationError(
                    f"mix {self.name}: unknown member profile {member!r}")


# Members are ordered by a memory-intensity proxy (working-set bytes ×
# (1 − temporal locality) × memory fraction — the quantity that tracks MPKI
# in this model): mix1 takes the four most intensive profiles, mix5 the four
# least, and mix6/mix7 blend the extremes, in the mix1–mix7 style of
# multiprogrammed SPEC studies.
MIXES: Tuple[WorkloadMix, ...] = (
    WorkloadMix("mix1", ("lbm", "milc", "art", "mcf"),
                "four most memory-intensive profiles"),
    WorkloadMix("mix2", ("equake", "gcc", "twolf", "perl"),
                "high-intensity pointer-chasing profiles"),
    WorkloadMix("mix3", ("vpr", "mesa", "ijpeg", "ammp"),
                "mid-intensity profiles"),
    WorkloadMix("mix4", ("h264", "bzip2", "hmmer", "gobmk"),
                "lower-mid-intensity profiles"),
    WorkloadMix("mix5", ("go", "sjeng", "gzip", "comp"),
                "four least memory-intensive profiles"),
    WorkloadMix("mix6", ("lbm", "mcf", "gzip", "comp"),
                "two most + two least intensive profiles"),
    WorkloadMix("mix7", ("milc", "gcc", "go", "bzip2"),
                "one profile from each intensity quartile"),
)

_MIX_BY_NAME: Dict[str, WorkloadMix] = {mix.name: mix for mix in MIXES}


def mix_names() -> List[str]:
    """Mix names in definition (intensity) order."""
    return [mix.name for mix in MIXES]


def mix_by_name(name: str) -> WorkloadMix:
    try:
        return _MIX_BY_NAME[name]
    except KeyError:
        known = ", ".join(mix_names())
        raise ConfigurationError(
            f"unknown mix {name!r}; known: {known}") from None


def parse_mix_benchmark(token: str):
    """Decode a mix benchmark token, or ``None`` for an ordinary benchmark.

    Grammar: ``mixK`` runs every member; ``mixK:N`` the first *N* members;
    ``mixK:N@S`` *N* members starting at member index *S* (so ``mix1:1@2``
    is member 2 of mix1 running solo).  Returns ``(mix, members)`` where
    ``members`` is a tuple of ``(member_index, profile_name)`` pairs, one
    per core in core order — member indices (not core slots) key the
    per-member seed derivation, so a member keeps its workload whether it
    runs solo or inside the full mix.
    """
    name, sep, suffix = token.partition(":")
    mix = _MIX_BY_NAME.get(name)
    if mix is None:
        if name.startswith("mix") and name not in _BY_NAME:
            raise ConfigurationError(
                f"unknown mix {name!r}; known: {', '.join(mix_names())}")
        return None
    start, count = 0, len(mix.members)
    if sep:
        head, at, tail = suffix.partition("@")
        try:
            count = int(head)
            if at:
                start = int(tail)
        except ValueError:
            raise ConfigurationError(
                f"bad mix token {token!r}: expected mixK, mixK:N or "
                f"mixK:N@S") from None
        if count < 1 or start < 0 or start + count > len(mix.members):
            raise ConfigurationError(
                f"bad mix token {token!r}: {mix.name} has "
                f"{len(mix.members)} members")
    members = tuple((start + j, mix.members[start + j]) for j in range(count))
    return mix, members


def mix_member_seed(mix_name: str, member_index: int, base_seed: int) -> int:
    """Deterministic per-member seed, derived like PR 1's benchmark seeds.

    Folding a crc32 of ``mix#member`` into the base seed decorrelates the
    members' synthetic traces (identical seeds would phase-lock identical
    profiles) while keeping every mix reproducible across runs and worker
    pools.
    """
    tag = f"{mix_name}#{member_index}".encode()
    return base_seed ^ (zlib.crc32(tag) & 0xFFFF)
