"""Identifier-based checker models: inline-metadata and disjoint-metadata
software variants (§2.2, §2.3).

Both variants associate a unique identifier with every allocation and check
it on every access, so both detect use-after-free even after reallocation.
They differ in where the per-pointer metadata lives:

* **inline** (SafeC, Patil & Fischer, MSCC, Chuang et al.): the identifier is
  stored next to the pointer (a fat pointer).  Memory layout changes break
  binary compatibility, and an arbitrary cast or type-punning store can
  overwrite the metadata, silently disabling detection — which is exactly
  what the Table 1 "Casts" column records,
* **disjoint** (CETS, and Watchdog itself): the identifier lives in a shadow
  space keyed by the pointer's *location*, so program stores can never
  clobber it.

The classes also carry the representative runtime-overhead factors the paper
tabulates for the software implementations (they are inputs to Table 1, not
measured here — this reproduction measures Watchdog's own overhead in the
Figure 7/9/11 experiments).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass
class IdentifierCheckStats:
    accesses: int = 0
    violations: int = 0
    allocations: int = 0
    frees: int = 0
    metadata_corruptions: int = 0


class _IdentifierCheckerBase:
    """Shared lock-and-key style bookkeeping for the software models."""

    metadata = "unspecified"
    survives_arbitrary_casts = False
    representative_overhead = 1.0

    def __init__(self) -> None:
        self._next_key = itertools.count(1)
        #: allocation id -> (key, valid?)
        self._allocations: Dict[int, Tuple[int, bool]] = {}
        self.stats = IdentifierCheckStats()

    def on_alloc(self, allocation_id: int, size: int) -> int:
        self.stats.allocations += 1
        key = next(self._next_key)
        self._allocations[allocation_id] = (key, True)
        return key

    def on_free(self, allocation_id: int) -> None:
        self.stats.frees += 1
        entry = self._allocations.get(allocation_id)
        if entry is None:
            return
        key, _ = entry
        self._allocations[allocation_id] = (key, False)

    def _key_is_valid(self, allocation_id: int, key: Optional[int]) -> bool:
        entry = self._allocations.get(allocation_id)
        if entry is None or key is None:
            return False
        current_key, valid = entry
        return valid and current_key == key


class DisjointIdentifierChecker(_IdentifierCheckerBase):
    """CETS-style software checker: disjoint metadata, comprehensive, ~2x."""

    metadata = "disjoint"
    survives_arbitrary_casts = True
    representative_overhead = 2.0

    def __init__(self) -> None:
        super().__init__()
        #: pointer name -> (allocation id, key); disjoint from program data,
        #: so program stores cannot touch it.
        self._pointer_metadata: Dict[str, Tuple[int, int]] = {}

    def on_pointer_created(self, pointer: str, allocation_id: int, key: int) -> None:
        self._pointer_metadata[pointer] = (allocation_id, key)

    def on_pointer_copied(self, source: str, dest: str) -> None:
        if source in self._pointer_metadata:
            self._pointer_metadata[dest] = self._pointer_metadata[source]
        else:
            self._pointer_metadata.pop(dest, None)

    def on_arbitrary_cast(self, pointer: str) -> None:
        """A cast/type-pun writes through the pointer's storage.  Disjoint
        metadata is unaffected (§2.2)."""
        return

    def check_access(self, pointer: str) -> bool:
        self.stats.accesses += 1
        entry = self._pointer_metadata.get(pointer)
        if entry is None:
            self.stats.violations += 1
            return False
        allocation_id, key = entry
        ok = self._key_is_valid(allocation_id, key)
        if not ok:
            self.stats.violations += 1
        return ok


class InlineIdentifierChecker(DisjointIdentifierChecker):
    """Fat-pointer style checker: identifier stored next to the pointer.

    Identical detection power to the disjoint variant *until* an arbitrary
    cast or type-punning store overwrites the inline metadata, after which
    checks on that pointer are performed against garbage and silently pass —
    the incompatibility/corruption problem §2.2 describes.
    """

    metadata = "inline"
    survives_arbitrary_casts = False
    representative_overhead = 5.0

    def on_arbitrary_cast(self, pointer: str) -> None:
        """The cast clobbers the words adjacent to the pointer — i.e. the
        inline identifier.  Model: the pointer's metadata is destroyed and
        subsequent checks cannot observe the stale identifier."""
        if pointer in self._pointer_metadata:
            self.stats.metadata_corruptions += 1
            del self._pointer_metadata[pointer]

    def check_access(self, pointer: str) -> bool:
        self.stats.accesses += 1
        entry = self._pointer_metadata.get(pointer)
        if entry is None:
            # Corrupted/absent inline metadata: the check compares against
            # whatever bytes are there and (unsoundly) passes.
            return True
        allocation_id, key = entry
        ok = self._key_is_valid(allocation_id, key)
        if not ok:
            self.stats.violations += 1
        return ok
