"""Table 1 comparison harness.

Table 1 compares representative location-based and identifier-based
approaches along five axes: instrumentation method, runtime overhead,
metadata organisation, safety under arbitrary casts, and comprehensive
detection in the presence of reallocation.  The qualitative columns are
*derived* here by replaying two witness scenarios through executable models
of each approach:

* **reallocation scenario** — pointer `p` is freed, the memory is immediately
  reallocated to a new object, and `p` is then dereferenced.  Identifier
  approaches flag it; location approaches do not (§2.1),
* **cast scenario** — a type-punning store overwrites the words around a
  pointer before it is (legitimately) dereferenced, then the object is freed
  and the pointer dereferenced again.  Inline-metadata approaches lose the
  stale-identifier information and miss the second dereference; disjoint
  approaches keep working (§2.2).

The instrumentation method and representative overhead columns are the
published characteristics of each system (they cannot be measured from
here); Watchdog's own overhead is measured by the Figure 7 experiment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.location_based import LocationBasedChecker
from repro.baselines.sw_identifier import (
    DisjointIdentifierChecker,
    InlineIdentifierChecker,
)


class EventKind(enum.Enum):
    """Events in an abstract allocation/access trace."""

    ALLOC = "alloc"
    FREE = "free"
    ACCESS = "access"
    CAST = "cast"


@dataclass
class MemoryEvent:
    """One event in a Table 1 witness scenario.

    ``pointer`` names the pointer variable used for the access (identifier
    approaches key metadata off it); ``allocation`` names the allocation the
    pointer refers to; ``address``/``size`` give the concrete location used
    by location-based approaches.
    """

    kind: EventKind
    pointer: Optional[str] = None
    allocation: Optional[int] = None
    address: int = 0
    size: int = 8
    #: For ACCESS events: is this dereference a temporal error the checker
    #: *should* flag?
    is_error: bool = False


def reallocation_scenario() -> List[MemoryEvent]:
    """Use-after-free where the chunk is reallocated before the access."""
    return [
        MemoryEvent(EventKind.ALLOC, pointer="p", allocation=1, address=0x1000, size=64),
        MemoryEvent(EventKind.ACCESS, pointer="p", allocation=1, address=0x1008),
        MemoryEvent(EventKind.FREE, pointer="p", allocation=1, address=0x1000, size=64),
        # The same address range is immediately reused by a new allocation.
        MemoryEvent(EventKind.ALLOC, pointer="q", allocation=2, address=0x1000, size=64),
        MemoryEvent(EventKind.ACCESS, pointer="q", allocation=2, address=0x1010),
        # Dangling dereference of p: temporal error that should be detected.
        MemoryEvent(EventKind.ACCESS, pointer="p", allocation=1, address=0x1008,
                    is_error=True),
    ]


def cast_corruption_scenario(with_cast: bool = True) -> List[MemoryEvent]:
    """Use-after-free preceded (optionally) by a metadata-clobbering cast.

    The "Casts" column of Table 1 asks whether arbitrary casts *degrade* an
    approach's safety, so this scenario is evaluated twice — with and without
    the cast — and an approach is cast-safe iff its detection outcome is the
    same in both runs.  (Location-based approaches miss the error either way,
    but the cast is not what costs them; inline-metadata identifier schemes
    detect it without the cast and miss it with the cast.)
    """
    events = [
        MemoryEvent(EventKind.ALLOC, pointer="p", allocation=1, address=0x2000, size=64),
    ]
    if with_cast:
        events.append(MemoryEvent(EventKind.CAST, pointer="p", allocation=1,
                                  address=0x2000))
    events.extend([
        MemoryEvent(EventKind.ACCESS, pointer="p", allocation=1, address=0x2008),
        MemoryEvent(EventKind.FREE, pointer="p", allocation=1, address=0x2000, size=64),
        MemoryEvent(EventKind.ACCESS, pointer="p", allocation=1, address=0x2008,
                    is_error=True),
    ])
    return events


def standard_scenarios() -> Dict[str, List[MemoryEvent]]:
    """The witness scenarios used to derive the Table 1 columns."""
    return {
        "reallocation": reallocation_scenario(),
        "cast-corruption": cast_corruption_scenario(with_cast=True),
        "cast-control": cast_corruption_scenario(with_cast=False),
    }


# ----------------------------------------------------------------------------- replay
def _replay_location(events: List[MemoryEvent]) -> Tuple[int, int]:
    """Replay through a location-based checker; return (errors, detected)."""
    checker = LocationBasedChecker()
    errors = detected = 0
    for event in events:
        if event.kind is EventKind.ALLOC:
            checker.on_alloc(event.address, event.size)
        elif event.kind is EventKind.FREE:
            checker.on_free(event.address, event.size)
        elif event.kind is EventKind.ACCESS:
            ok = checker.check_access(event.address, 8)
            if event.is_error:
                errors += 1
                if not ok:
                    detected += 1
        # CAST events do not affect a location-based checker.
    return errors, detected


def _replay_identifier(events: List[MemoryEvent], checker) -> Tuple[int, int]:
    """Replay through an identifier-based checker; return (errors, detected)."""
    keys: Dict[int, int] = {}
    errors = detected = 0
    for event in events:
        if event.kind is EventKind.ALLOC:
            key = checker.on_alloc(event.allocation, event.size)
            keys[event.allocation] = key
            checker.on_pointer_created(event.pointer, event.allocation, key)
        elif event.kind is EventKind.FREE:
            checker.on_free(event.allocation)
        elif event.kind is EventKind.CAST:
            checker.on_arbitrary_cast(event.pointer)
        elif event.kind is EventKind.ACCESS:
            ok = checker.check_access(event.pointer)
            if event.is_error:
                errors += 1
                if not ok:
                    detected += 1
    return errors, detected


# ----------------------------------------------------------------------------- summaries
@dataclass
class ApproachSummary:
    """One row of Table 1."""

    name: str
    category: str                 # "location" or "identifier"
    instrumentation: str          # Binary / Compiler / Source / Hybrid / H/W
    runtime_overhead: str         # representative factor as the paper prints it
    metadata: str                 # Disjoint / Inline / Split / —
    safe_with_casts: bool
    comprehensive: bool

    def as_row(self) -> str:
        casts = "Y" if self.safe_with_casts else "N"
        compre = "Y" if self.comprehensive else "N"
        return (f"{self.name:<10} {self.category:<10} {self.instrumentation:<9} "
                f"{self.runtime_overhead:>7} {self.metadata:<9} {casts:^5} {compre:^7}")


#: (name, category, instrumentation, representative overhead, checker factory)
_APPROACHES: List[Tuple[str, str, str, str, Callable[[], object]]] = [
    ("MC",       "location",   "Binary",   "10x",  LocationBasedChecker),
    ("JK",       "location",   "Compiler", "10x",  LocationBasedChecker),
    ("LBA",      "location",   "H/W",      "1.2x", LocationBasedChecker),
    ("SProc",    "location",   "H/W",      "1.2x", LocationBasedChecker),
    ("MTrac",    "location",   "H/W",      "1.2x", LocationBasedChecker),
    ("SafeC",    "identifier", "Source",   "10x",  InlineIdentifierChecker),
    ("P&F",      "identifier", "Source",   "5x",   InlineIdentifierChecker),
    ("MSCC",     "identifier", "Source",   "2x",   InlineIdentifierChecker),
    ("Chuang",   "identifier", "Hybrid",   "1.2x", InlineIdentifierChecker),
    ("CETS",     "identifier", "Compiler", "2x",   DisjointIdentifierChecker),
    ("Watchdog", "identifier", "H/W",      "1.2x", DisjointIdentifierChecker),
]


class ComparisonHarness:
    """Derives the Table 1 rows by replaying the witness scenarios."""

    def __init__(self) -> None:
        self.scenarios = standard_scenarios()

    def _detections(self, factory: Callable[[], object], category: str,
                    scenario: str) -> Tuple[int, int]:
        """Replay one scenario through a fresh checker; return (errors, detected)."""
        events = self.scenarios[scenario]
        checker = factory()
        if category == "location":
            return _replay_location(events)
        return _replay_identifier(events, checker)

    def _evaluate(self, factory: Callable[[], object], category: str,
                  scenario: str) -> bool:
        """True if a fresh checker detects every error in the scenario."""
        errors, detected = self._detections(factory, category, scenario)
        return errors > 0 and detected == errors

    def _cast_safe(self, factory: Callable[[], object], category: str) -> bool:
        """Casts are safe iff they do not change what the approach detects."""
        _, with_cast = self._detections(factory, category, "cast-corruption")
        _, without_cast = self._detections(factory, category, "cast-control")
        return with_cast == without_cast

    def summaries(self) -> List[ApproachSummary]:
        """One summary per approach, columns derived from the scenarios."""
        rows: List[ApproachSummary] = []
        for name, category, instrumentation, overhead, factory in _APPROACHES:
            comprehensive = self._evaluate(factory, category, "reallocation")
            safe_with_casts = self._cast_safe(factory, category)
            checker = factory()
            metadata = getattr(checker, "metadata", "disjoint").capitalize()
            rows.append(ApproachSummary(
                name=name, category=category, instrumentation=instrumentation,
                runtime_overhead=overhead, metadata=metadata,
                safe_with_casts=safe_with_casts, comprehensive=comprehensive))
        return rows

    def format_table(self) -> str:
        """Render the comparison as a Table 1-style text table."""
        header = (f"{'Approach':<10} {'Category':<10} {'Instrum.':<9} "
                  f"{'Runtime':>7} {'Metadata':<9} {'Casts':^5} {'Compre.':^7}")
        lines = [header, "-" * len(header)]
        lines.extend(summary.as_row() for summary in self.summaries())
        return "\n".join(lines)
