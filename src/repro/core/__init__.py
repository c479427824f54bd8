"""Watchdog core — the paper's primary contribution.

This package implements the hardware mechanisms of the paper:

* lock-and-key allocation identifiers (§4.1) — :mod:`repro.core.identifier`,
* per-pointer metadata, optionally widened with base/bound for the bounds
  extension (§8) — :mod:`repro.core.metadata`,
* the check semantics (identifier validity, bounds) — :mod:`repro.core.checks`,
* µop injection around loads, stores, calls, returns and pointer arithmetic
  (§3, Figure 2/3) — :mod:`repro.core.uop_injection`,
* conservative and ISA-assisted pointer identification (§5) —
  :mod:`repro.core.pointer_id`,
* register metadata propagation (§6): functionally in
  :meth:`repro.core.watchdog.Watchdog.propagate`, and for timing as the
  injector's ``META_SELECT`` µops — single-source copies cost nothing with
  rename-time copy elimination, one µop each without it
  (:meth:`repro.sim.compiled.StreamCompiler._full_expand`),
* stack-frame identifier management on call/return (Figure 3c/3d) —
  :mod:`repro.core.stack_frames`,
* the top-level engine and configuration — :mod:`repro.core.watchdog`,
  :mod:`repro.core.config`.
"""

from repro.core.identifier import Identifier, LockLocationAllocator, KeyGenerator
from repro.core.metadata import PointerMetadata, GLOBAL_IDENTIFIER_KEY
from repro.core.config import WatchdogConfig, PointerIdentificationMode, BoundsCheckMode
from repro.core.checks import CheckUnit, CheckOutcome
from repro.core.pointer_id import ConservativeIdentifier, IsaAssistedIdentifier
from repro.core.uop_injection import UopInjector
from repro.core.stack_frames import StackFrameManager
from repro.core.watchdog import Watchdog

__all__ = [
    "Identifier",
    "LockLocationAllocator",
    "KeyGenerator",
    "PointerMetadata",
    "GLOBAL_IDENTIFIER_KEY",
    "WatchdogConfig",
    "PointerIdentificationMode",
    "BoundsCheckMode",
    "CheckUnit",
    "CheckOutcome",
    "ConservativeIdentifier",
    "IsaAssistedIdentifier",
    "UopInjector",
    "StackFrameManager",
    "Watchdog",
]
