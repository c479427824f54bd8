"""Shared program builders and golden-digest helpers for the test suite.

Importable as :mod:`tests.helpers` — test modules must not import from
``conftest`` (two conftest modules in one session shadow each other).
"""

import hashlib
import json
from pathlib import Path

from repro.program.builder import ProgramBuilder
from repro.sim.results import CellResult

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
