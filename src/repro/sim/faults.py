"""Deterministic fault injection for the sweep execution layer.

Every recovery path in the engine — worker-crash retry,
:class:`~concurrent.futures.process.BrokenProcessPool` rebuild, per-cell
deadlines, native-kernel degradation, cache-entry quarantine — exists because
the corresponding failure happens in the wild, where it is rare and
unreproducible.  A :class:`FaultPlan` makes those failures *scheduled*: it
names exact (subject, attempt) points at which a fault fires, so a test or a
CI leg can deterministically exercise one recovery path at a time and assert
that every healthy cell still completes bit-identically.

Four fault kinds cover the failure modes the engine recovers from:

``crash``
    The worker executing the subject benchmark dies.  In a process-pool
    worker this is a hard ``os._exit`` (the parent observes
    ``BrokenProcessPool``, exactly like an OOM kill or a segfaulting native
    kernel); in-process execution raises :class:`InjectedWorkerCrash`.
``slow``
    The worker sleeps for the spec's duration before simulating — long
    enough to trip the engine's per-cell deadline.
``corrupt``
    The result cache writes a truncated, unparseable entry for the subject
    cell, exercising the corrupt-entry quarantine on a later read.
``selftest``
    The named native kernel's load-time self-test is treated as refused,
    exercising the graceful-degradation path (pure-Python fallback plus a
    structured :class:`~repro.sim.results.DegradationEvent`).

Plans parse from a compact spec string (the ``REPRO_FAULTS`` environment
variable, which pool workers inherit) and are plain frozen dataclasses, so
the engine can also ship them inside pickled jobs::

    REPRO_FAULTS="crash:gzip:0,slow:mcf:*:2.5,corrupt:gzip/baseline,selftest:timecore"

Each comma/semicolon-separated token is ``kind:subject[:attempt][:seconds]``;
``attempt`` is a 0-based attempt index or ``*`` for every attempt (default:
``0``, i.e. fire once on the first try and let the retry succeed).
"""

from __future__ import annotations

import multiprocessing
import os
import re
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError, ReproError

#: Environment variable carrying the active fault plan (workers inherit it).
FAULTS_ENV = "REPRO_FAULTS"

#: Exit status an injected worker crash dies with (distinguishable from a
#: real segfault's negative signal status in worker logs).
INJECTED_CRASH_EXIT = 86

#: Default sleep for ``slow`` faults without an explicit duration: long
#: enough to exceed any sane deadline, short enough not to hang a test run
#: whose deadline enforcement is broken.
DEFAULT_SLOW_SECONDS = 30.0

KINDS = ("crash", "slow", "corrupt", "selftest")


class InjectedWorkerCrash(ReproError):
    """A ``crash`` fault fired in an in-process (non-pool-worker) execution."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *kind* fires at (*subject*, *attempt*).

    ``subject`` is a benchmark name for ``crash``/``slow``, a
    ``benchmark`` or ``benchmark/label`` cell coordinate for ``corrupt``,
    and a kernel name (``timecore``, ``ffcore``) for ``selftest``.
    ``attempt`` is ``None`` for "every attempt" (the ``*`` spelling).
    """

    kind: str
    subject: str
    attempt: Optional[int] = 0
    seconds: float = DEFAULT_SLOW_SECONDS

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} (expected one of "
                f"{', '.join(KINDS)})")
        if not self.subject:
            raise ConfigurationError(f"fault {self.kind!r} needs a subject")
        if self.seconds <= 0:
            raise ConfigurationError(
                f"slow-fault duration must be positive, got {self.seconds!r}")

    def matches_attempt(self, attempt: int) -> bool:
        return self.attempt is None or self.attempt == attempt


def _parse_token(token: str) -> FaultSpec:
    parts = token.split(":")
    if len(parts) < 2:
        raise ConfigurationError(
            f"malformed fault token {token!r} (expected "
            f"kind:subject[:attempt[:seconds]])")
    kind, subject = parts[0].strip(), parts[1].strip()
    attempt: Optional[int] = 0
    seconds = DEFAULT_SLOW_SECONDS
    if len(parts) > 2 and parts[2].strip():
        raw = parts[2].strip()
        if raw == "*":
            attempt = None
        else:
            try:
                attempt = int(raw)
            except ValueError:
                raise ConfigurationError(
                    f"fault token {token!r}: attempt must be an integer "
                    f"or '*', got {raw!r}") from None
            if attempt < 0:
                raise ConfigurationError(
                    f"fault token {token!r}: attempt must be >= 0")
    if len(parts) > 3 and parts[3].strip():
        if kind != "slow":
            raise ConfigurationError(
                f"fault token {token!r}: only 'slow' takes a duration")
        try:
            seconds = float(parts[3].strip())
        except ValueError:
            raise ConfigurationError(
                f"fault token {token!r}: duration must be a number, "
                f"got {parts[3]!r}") from None
    return FaultSpec(kind=kind, subject=subject, attempt=attempt,
                     seconds=seconds)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of scheduled faults (picklable, hashable, immutable)."""

    specs: Tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: Optional[str]) -> "FaultPlan":
        """Build a plan from a ``REPRO_FAULTS``-style spec string."""
        if not text or not text.strip():
            return cls()
        tokens = [token for token in re.split(r"[,;\s]+", text.strip())
                  if token]
        return cls(specs=tuple(_parse_token(token) for token in tokens))

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """The plan named by ``REPRO_FAULTS`` (empty plan when unset)."""
        return cls.parse(os.environ.get(FAULTS_ENV))

    @property
    def empty(self) -> bool:
        return not self.specs

    # -- match queries (one per fault kind) ------------------------------------------
    def crashes(self, benchmark: str, attempt: int) -> bool:
        return any(spec.kind == "crash" and spec.subject == benchmark
                   and spec.matches_attempt(attempt) for spec in self.specs)

    def slow_seconds(self, benchmark: str, attempt: int) -> Optional[float]:
        for spec in self.specs:
            if spec.kind == "slow" and spec.subject == benchmark \
                    and spec.matches_attempt(attempt):
                return spec.seconds
        return None

    def corrupts_store(self, benchmark: str, label: str) -> bool:
        return any(spec.kind == "corrupt"
                   and spec.subject in (benchmark, f"{benchmark}/{label}")
                   for spec in self.specs)

    def kernel_selftest_fails(self, kernel: str) -> bool:
        return any(spec.kind == "selftest" and spec.subject == kernel
                   for spec in self.specs)


def apply_execution_faults(plan: FaultPlan, benchmark: str,
                           attempt: int) -> None:
    """Fire the plan's ``slow``/``crash`` faults for one job execution.

    Called at the top of the worker-side job body.  A ``slow`` fault sleeps
    (so a deadline-enforcing parent observes a hung worker); a ``crash``
    fault then kills the process — ``os._exit`` when running inside a pool
    worker (the parent sees ``BrokenProcessPool``, exactly like a real
    worker death), :class:`InjectedWorkerCrash` when running in-process.
    """
    delay = plan.slow_seconds(benchmark, attempt)
    if delay is not None:
        time.sleep(delay)
    if plan.crashes(benchmark, attempt):
        if multiprocessing.parent_process() is not None:
            os._exit(INJECTED_CRASH_EXIT)
        raise InjectedWorkerCrash(
            f"injected worker crash: {benchmark} attempt {attempt}")
