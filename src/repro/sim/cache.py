"""Persistent, content-addressed result cache.

A simulated cell is a pure function of its inputs: the benchmark profile,
the workload seed and instruction counts, the §9.1 sampling schedule, the
Watchdog configuration and the machine configuration.  The cache therefore
keys each
:class:`~repro.sim.results.CellResult` by a SHA-256 digest of a canonical
JSON rendering of exactly those inputs (plus a schema version that is bumped
whenever the simulation semantics change), and stores the cell as one small
JSON file.  Repeated figure runs, the benchmark harness and the CLI all skip
already-computed cells; any change to a configuration knob changes the
digest and transparently invalidates the entry.  The native timing core
is not part of the key: it is bit-identical to the Python loops it
replaces (a load-time self-test refuses a kernel that is not).

Corrupt entries (truncated writes, hand edits, bit rot) are **quarantined**,
not just treated as misses: the broken file is renamed to ``<key>.corrupt``
and the event recorded as a :class:`~repro.sim.results.DegradationEvent`
(drained by the engine into the suite report).  Leaving the file in place
would make every future run re-parse and re-miss it forever; renaming lets
the regenerated entry take the key back while preserving the corpse for
inspection.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Any, List, Optional, Union

from repro.pipeline.config import MachineConfig
from repro.sim.faults import FaultPlan
from repro.sim.results import CellResult, DegradationEvent
from repro.sim.spec import RunRequest

#: Bump when the on-disk record layout or the fingerprint payload changes.
#: v2: the payload gained the resolved pipeline (a reference-pipeline run
#: must never be served a compiled-pipeline cell, or vice versa) and the
#: request's sampling schedule.
#: v3: :class:`CellResult` gained the ``failed`` placeholder flag (entries
#: written by older code lack the field and must not zero-fill it).
#: v4: multi-core mixes — :class:`CellResult` gained the per-core ``cores``
#: blocks and benchmark names may now be mix tokens, both changing the
#: record layout and the cell input space.
#: v5: the payload lost its ``pipeline`` term (one timing model remains).
CACHE_SCHEMA_VERSION = 5

#: Default on-disk location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the installed ``repro`` sources, mixed into every cache key.

    A cached cell is only valid for the simulator that produced it; hashing
    the package's source files means any code change — not just ones someone
    remembered to version-bump — invalidates existing entries instead of
    silently serving results the current code no longer produces.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        try:
            digest.update(path.read_bytes())
        except OSError:
            continue
    return digest.hexdigest()


def canonical_value(value: Any) -> Any:
    """Render configs (nested dataclasses/enums) as a canonical JSON value.

    Every field is included — even ``compare=False`` ones: e.g.
    ``MachineConfig.EXEC_LATENCY`` is excluded from equality but is a real
    timing input, and two machines differing only there must not share
    cache entries.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical_value(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(key): canonical_value(val)
                for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    return value


def request_fingerprint(request: RunRequest,
                        machine: Optional[MachineConfig] = None) -> str:
    """Content hash identifying one cell's full input space."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "benchmark": request.benchmark,
        "instructions": request.instructions,
        "seed": request.seed,
        "warmup_instructions": request.warmup_instructions,
        "sampling": canonical_value(request.sampling),
        "config": canonical_value(request.config),
        "machine": canonical_value(machine or MachineConfig()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Process-wide temp-file serial.  Temp names carry pid + this counter, so
#: two writers in the same process (threads, re-entrant stores) and writers
#: in different processes can never collide on a temp path; the final
#: ``os.replace`` onto the key stays atomic either way.
_TMP_COUNTER = itertools.count()


class ResultCache:
    """On-disk store of :class:`CellResult` records, one JSON file per cell."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR,
                 faults: Optional[FaultPlan] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corruptions = 0
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self._corruption_events: List[DegradationEvent] = []

    # -- keying ---------------------------------------------------------------------
    def key(self, request: RunRequest,
            machine: Optional[MachineConfig] = None) -> str:
        return request_fingerprint(request, machine)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- access ---------------------------------------------------------------------
    def load(self, key: str) -> Optional[CellResult]:
        """Fetch a cached cell, or ``None`` (corrupt entries are quarantined).

        A missing file is a plain miss.  An entry that exists but does not
        parse — or is missing any :class:`CellResult` field — is *corrupt*:
        a truncated or hand-edited file must fall back to simulation, not
        masquerade as a cell with zero cycles.  Corrupt files are renamed to
        ``<key>.corrupt`` (so the regenerated entry takes the key back and
        this run's report carries a ``cache-corrupt`` degradation event)
        rather than re-parsed as misses on every future run.
        """
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
            if not isinstance(data, dict) or \
                    any(f.name not in data for f in dataclasses.fields(CellResult)):
                raise ValueError("incomplete cache entry")
            cell = CellResult.from_dict(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, TypeError) as exc:
            self._quarantine(path, exc)
            self.misses += 1
            return None
        self.hits += 1
        return cell

    def _quarantine(self, path: Path, error: Exception) -> None:
        """Rename a corrupt entry aside and record the degradation."""
        corpse = path.with_suffix(".corrupt")
        try:
            os.replace(path, corpse)
        except OSError:
            # Lost a race with another process quarantining (or rewriting)
            # the same entry — either way the key is no longer corrupt here.
            return
        self.corruptions += 1
        self._corruption_events.append(DegradationEvent(
            kind="cache-corrupt", subject=path.name,
            detail=(f"quarantined to {corpse.name}: "
                    f"{type(error).__name__}: {error}")))

    def drain_corruption_events(self) -> List[DegradationEvent]:
        """Hand over (and clear) the quarantine events since the last drain."""
        events, self._corruption_events = self._corruption_events, []
        return events

    def store(self, key: str, cell: CellResult) -> None:
        """Persist a cell atomically (write-to-temp then rename).

        The temp name embeds pid + a process-wide counter, so concurrent
        writers of the same key never collide on the temp path; last
        ``os.replace`` wins on the key itself, which is safe because every
        writer of a key writes the same deterministic content.
        """
        path = self._path(key)
        blob = json.dumps(cell.to_dict(), sort_keys=True)
        if self.faults.corrupts_store(cell.benchmark, cell.configuration):
            # Injected corruption: persist a torn write (truncated JSON),
            # exactly what a mid-write power loss leaves behind.
            blob = blob[:max(1, len(blob) // 3)]
        tmp = self.root / \
            f".{key[:24]}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        try:
            tmp.write_text(blob, encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def contains(self, key: str) -> bool:
        return self._path(key).exists()

    def clear(self) -> int:
        """Delete every cached cell; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
