"""Compile-at-first-use machinery shared by the native kernels.

Every native kernel in this repository follows one recipe (established by the
fast-forward kernel, :mod:`repro.workloads._ffcore`):

1. the C source is embedded in the owning Python module,
2. at first use it is compiled with whatever system C compiler responds
   (``cc``, ``gcc``, ``clang``) into a shared object cached on disk under a
   name derived from the sha256 of the source — so a source change can never
   pick up a stale artifact, and a second process (or a later run) reuses the
   build,
3. the artifact is loaded with :mod:`ctypes` and **self-tested** against the
   pure-Python reference implementation before it is trusted,
4. an environment kill switch disables the kernel outright, and *any* failure
   anywhere in the chain makes the loader return ``None`` so the caller falls
   back to the bit-identical Python path.

The fallback is golden-equal but ~6× slower, so "return None" must never be
the whole story: every load decision is recorded on a module-level
:class:`KernelStatus` (``why`` did it fail — compiler missing, non-zero cc
exit, refused self-test), an *unexpected* failure additionally emits a single
:class:`RuntimeWarning` per process, and the statuses are surfaced by
``repro bench`` and as :class:`~repro.sim.results.DegradationEvent` records
in suite reports.  A deliberately disabled kernel (kill switch) is recorded
as ``disabled`` and stays silent — the user asked for it.

This module holds the shared steps (trusted cache directory, compilation,
memoized load, status ledger); each kernel module supplies its source, its
ctypes bindings and its self-test.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

_COMPILERS = ("cc", "gcc", "clang")


def _dir_is_trusted(path: Path) -> bool:
    """Refuse to load/compile kernels from a directory another user controls.

    The shared-tmp fallback has a predictable name; without this check a
    local attacker could pre-create it and plant a ``.so`` that
    ``ctypes.CDLL`` would execute before the self-test runs.
    """
    try:
        stat = path.stat()
    except OSError:
        return False
    uid = getattr(os, "getuid", lambda: 0)()
    if hasattr(os, "getuid") and stat.st_uid != uid:
        return False
    # No group/other write permission.
    return (stat.st_mode & 0o022) == 0


def cache_dir(dir_env: str) -> Optional[Path]:
    """The trusted artifact directory, or ``None`` when none is available.

    ``dir_env`` names an environment variable overriding the location (used
    by tests to build into a temporary directory); otherwise the per-user
    cache directory is used, with a per-uid tmp directory as fallback.
    """
    override = os.environ.get(dir_env)
    if override:
        path = Path(override)
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        return path if _dir_is_trusted(path) else None
    for path in (Path.home() / ".cache" / "repro-watchdog",
                 Path(tempfile.gettempdir()) /
                 f"repro-watchdog-{getattr(os, 'getuid', lambda: 0)()}"):
        try:
            path.mkdir(parents=True, exist_ok=True, mode=0o700)
        except OSError:
            continue
        if _dir_is_trusted(path):
            return path
    return None


def compile_source(source: str, so_path: Path) -> Optional[str]:
    """Build ``source`` into ``so_path``; ``None`` on success, else why not.

    The failure string names the concrete cause — no compiler on PATH, or
    the last responding compiler's exit status with a stderr tail — so the
    status ledger (and through it ``repro bench`` and suite reports) can say
    more than "kernel unavailable".
    """
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        src = so_path.with_suffix(".c")
        src.write_text(source, encoding="utf-8")
        tmp = so_path.with_name(f".{so_path.name}.{os.getpid()}.tmp")
        failure: Optional[str] = None
        responded = False
        for compiler in _COMPILERS:
            try:
                result = subprocess.run(
                    [compiler, "-O2", "-fPIC", "-shared", "-o", str(tmp),
                     str(src)],
                    capture_output=True, timeout=120)
            except (OSError, subprocess.SubprocessError):
                continue
            responded = True
            if result.returncode == 0 and tmp.exists():
                os.replace(tmp, so_path)  # atomic: concurrent builds race safely
                return None
            stderr = result.stderr.decode(errors="replace").strip()
            tail = stderr.splitlines()[-1] if stderr else "no diagnostics"
            failure = (f"{compiler} exited with status "
                       f"{result.returncode}: {tail}")
        if not responded:
            return (f"no C compiler responded "
                    f"(tried {', '.join(_COMPILERS)})")
        return failure
    except OSError as exc:
        return f"build I/O failure: {exc}"


def artifact_path(name: str, source: str, dir_env: str) -> Optional[Path]:
    """Where ``name``'s artifact for this exact source lives (may not exist)."""
    directory = cache_dir(dir_env)
    if directory is None:
        return None
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    return directory / f"{name}-{digest}.so"


@dataclass
class KernelStatus:
    """The recorded outcome of one kernel's (memoized) load decision.

    ``available`` — the kernel loaded and passed its self-test;
    ``disabled`` — the kill switch turned it off on purpose;
    ``reason`` — why an enabled kernel is nonetheless unavailable (empty
    when available).  An enabled-but-unavailable kernel is the *unexpected*
    case the resilience layer reports.
    """

    name: str
    available: bool = False
    disabled: bool = False
    reason: str = ""
    artifact: Optional[str] = None

    @property
    def unexpected(self) -> bool:
        """True when the kernel should be running but is not."""
        return not self.available and not self.disabled

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "available": self.available,
                "disabled": self.disabled, "reason": self.reason,
                "artifact": self.artifact}


#: Kernel name -> ``(lib_or_None,)``.  Memoizes :func:`load_kernel` per
#: process; tests clear entries to force a reload under changed conditions.
_LOADED: Dict[str, Tuple[Optional[ctypes.CDLL]]] = {}

#: Kernel name -> the status of its last load decision.  Rewritten whenever
#: the memoized decision is remade (i.e. after ``_LOADED`` is cleared).
_STATUS: Dict[str, KernelStatus] = {}

#: Kernel names that already emitted their one-per-process unavailability
#: warning (an unexpected failure warns once, not per call site).
_WARNED: set = set()


def status(name: str) -> Optional[KernelStatus]:
    """The recorded load status of kernel ``name`` (None before first load)."""
    return _STATUS.get(name)


def statuses() -> Dict[str, KernelStatus]:
    """All recorded kernel load statuses, by kernel name."""
    return dict(_STATUS)


def unexpected_failures() -> Dict[str, KernelStatus]:
    """Kernels that should be running but are not (candidate degradations)."""
    return {name: st for name, st in _STATUS.items() if st.unexpected}


def forget(name: str) -> None:
    """Drop the memoized decision (and status) so the next load is fresh."""
    _LOADED.pop(name, None)
    _STATUS.pop(name, None)


def _fault_injected_selftest_failure(name: str) -> bool:
    """Whether the active ``REPRO_FAULTS`` plan fails this kernel's self-test."""
    # Imported at call time: build.py must stay importable before repro.sim
    # (the kernels' owning modules import it at module scope).
    from repro.sim.faults import FaultPlan

    return FaultPlan.from_env().kernel_selftest_fails(name)


def load_kernel(name: str, source: str, switch_env: str, dir_env: str,
                bind: Callable[[Path], ctypes.CDLL],
                self_test: Callable[[ctypes.CDLL], bool]):
    """The compiled-and-verified kernel ``name``, or ``None`` (memoized).

    ``switch_env`` names the kill-switch environment variable (value ``"0"``
    disables the kernel), ``dir_env`` the cache-directory override.  ``bind``
    attaches ctypes signatures to the loaded library; ``self_test`` must
    return a truthy value — or an ``(ok, detail)`` pair, whose detail names
    the diverging stage in the refusal reason — before the kernel is handed
    out.  Every failure — missing
    compiler, failed build, binding error, failed or crashing self-test —
    yields ``None`` with its reason recorded in :func:`status`; an
    unexpected failure (anything but the kill switch) warns once per
    process.  The decision is remembered for the process.
    """
    cached = _LOADED.get(name)
    if cached is not None:
        return cached[0]
    st = KernelStatus(name=name)
    lib = None
    if os.environ.get(switch_env, "").strip() == "0":
        st.disabled = True
        st.reason = f"disabled by {switch_env}=0"
    else:
        try:
            so_path = artifact_path(name, source, dir_env)
            if so_path is None:
                st.reason = ("no trusted artifact cache directory "
                             f"(checked {dir_env}, ~/.cache, per-uid tmp)")
            else:
                st.artifact = str(so_path)
                compile_error = None
                if not so_path.exists():
                    compile_error = compile_source(source, so_path)
                if compile_error is not None:
                    st.reason = compile_error
                elif _fault_injected_selftest_failure(name):
                    st.reason = ("fault-injected self-test failure "
                                 "(REPRO_FAULTS)")
                else:
                    candidate = bind(so_path)
                    # Until the self-test passes, a nested load reads the
                    # kernel as unavailable: a test may build the Python
                    # reference objects that would otherwise load it.
                    _LOADED[name] = (None,)
                    outcome = self_test(candidate)
                    detail = None
                    if isinstance(outcome, tuple):
                        outcome, detail = outcome
                    if outcome:
                        lib = candidate
                        st.available = True
                    else:
                        st.reason = ("self-test refused the kernel "
                                     "(output diverged from the Python "
                                     "reference"
                                     + (f": {detail}" if detail else "")
                                     + ")")
        except Exception as exc:
            lib = None
            st.available = False
            st.reason = f"loader error: {type(exc).__name__}: {exc}"
    if st.unexpected and name not in _WARNED:
        _WARNED.add(name)
        warnings.warn(
            f"native kernel {name!r} unavailable — falling back to the "
            f"pure-Python path (correct but much slower): {st.reason}",
            RuntimeWarning, stacklevel=2)
    _LOADED[name] = (lib,)
    _STATUS[name] = st
    return lib
