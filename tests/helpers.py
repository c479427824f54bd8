"""Shared program builders, one-access drivers and golden-digest helpers for
the test suite.

Importable as :mod:`tests.helpers` — test modules must not import from
``conftest`` (two conftest modules in one session shadow each other).
"""

import hashlib
import json
from array import array
from pathlib import Path

from repro.memory.cache import set_demand
from repro.memory.hierarchy import (
    PORT_CODES,
    SPEC_USE_LATENCY,
    SPEC_WRITE,
    PortKind,
)
from repro.program.builder import ProgramBuilder
from repro.sim.compiled import tokenize
from repro.sim.results import CellResult
from repro.sim.trace import TraceTokens
from repro.workloads.bundle import (
    SampleSegment,
    TraceBundle,
    WorkingSetSnapshot,
)

#: Per-cell digests recorded from the object-per-µop reference timing model
#: before it was retired (see :func:`cell_digest`).
REFERENCE_DIGESTS = Path(__file__).with_name("reference_digests.json")


def cell_digest(outcome, label: str) -> str:
    """sha256 of everything a timing cell reports, bit for bit.

    Covers the flat :class:`CellResult` record, the per-port wait averages
    (floats, serialized exactly) and the touched data and shadow word sets
    behind the Figure 10 page counts.
    """
    payload = json.dumps([
        CellResult.from_outcome(outcome, label=label).to_dict(),
        sorted(outcome.timing.port_waits.items()),
        sorted(outcome.pages.data_words),
        sorted(outcome.pages.shadow_words),
    ], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def reference_digests(table: str) -> dict:
    """One table (``"matrix"`` or ``"sampled"``) of the pinned digests."""
    return json.loads(REFERENCE_DIGESTS.read_text())[table]


def snapshot_lines(snapshot) -> tuple:
    """A working-set snapshot's 64-byte data lines, expanded from its ranges."""
    ranges = snapshot.ranges
    return tuple(line for i in range(0, len(ranges), 2)
                 for line in range(ranges[i], ranges[i + 1], 64))


def run_trace(simulator, trace, config, name: str = "trace",
              warmup_trace=None, working_set=None):
    """Compile and time an already-generated dynamic trace on ``simulator``.

    The trace (a functional machine's recorded trace, a generator's ops or
    a bundle window's tokens) replays as a one-window bundle.
    ``warmup_trace`` primes the hierarchy untimed, as a §9.1 warm-up window
    does, and ``working_set`` is installed first; without them the window
    starts cold.
    """
    measured = tokenize(trace)
    window = SampleSegment(
        warmup=tokenize(warmup_trace) if warmup_trace is not None
        else TraceTokens(),
        measured=measured,
        working_set=working_set if working_set is not None
        else WorkingSetSnapshot(ranges=array("q"), locks=array("q")))
    # An external trace has no generator seed.
    bundle = TraceBundle(benchmark=name, seed=0,
                         instructions=len(measured), samples=(window,))
    return simulator.run_bundle(bundle, config)


def cache_access(cache, address: int, is_write: bool = False) -> bool:
    """One demand access to a lone cache; True on a hit.

    The cache transition the hierarchy's batch loops make per level
    (:func:`~repro.memory.cache.set_demand`), counting hits, misses,
    evictions and writebacks as they do.
    """
    ways, num_sets, assoc, block_bytes = cache.geometry()
    block = address // block_bytes
    slot = set_demand(ways, (block % num_sets) * assoc, assoc,
                      (block + 1) << 1, 1 if is_write else 0)
    if slot < 0:
        cache.hits += 1
        return True
    cache.misses += 1
    if slot:
        cache.evictions += 1
        cache.writebacks += slot & 1
    return False


def resident(cache, address: int) -> bool:
    """Whether ``address``'s block is in ``cache``, clean or dirty."""
    ways, num_sets, assoc, block_bytes = cache.geometry()
    block = address // block_bytes
    base = (block % num_sets) * assoc
    key = (block + 1) << 1
    return bool({key, key + 1} & set(ways[base:base + assoc]))


def hierarchy_access(hierarchy, address: int, is_write: bool = False,
                     port: PortKind = PortKind.DATA) -> int:
    """One demand access as a one-element ``access_batch``; its latency."""
    spec = PORT_CODES[port] | SPEC_USE_LATENCY
    if is_write:
        spec |= SPEC_WRITE
    lats = [0]
    hierarchy.access_batch((address,), (spec,), (0,), lats)
    return lats[0]


def build_uaf_program():
    """The Figure 1 (left) heap use-after-free program."""
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", 64)
        main.mov("r2", "r1")
        main.free("r1")
        main.malloc("r3", 64)
        main.load("r4", "r2")
    return builder.build()


def build_benign_program():
    """A correct program: allocate, use, free."""
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", 64)
        main.mov_imm("r8", 42)
        main.store("r1", "r8", 8)
        main.load("r9", "r1", 8)
        main.free("r1")
    return builder.build()
