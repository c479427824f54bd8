"""Juliet-style use-after-free test suite (§9.2).

The paper validates Watchdog against the 291 use-after-free test cases
(CWE-416 *Use After Free* and CWE-562 *Return of Stack Variable Address*) of
the NIST Juliet suite and reports that all 291 are detected with no false
positives.  The suite itself is C source we cannot ship, so this module
generates the same *patterns* programmatically: each case is a small program
built with :class:`~repro.program.builder.ProgramBuilder` exercising one of
ten use-after-free flavours, parameterized (allocation sizes, access offsets,
aliasing depth, call depth) to produce 291 distinct cases.

Every faulty case has a *benign twin* — the same program with the temporal
error removed — used to confirm the absence of false positives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import ProgramError
from repro.program.builder import ProgramBuilder
from repro.program.ir import Program

#: Number of faulty cases in the NIST suite the paper uses.
JULIET_CASE_COUNT = 291


@dataclass
class JulietCase:
    """One generated test case."""

    name: str
    cwe: str
    pattern: str
    program: Program
    #: Expected violation kind for faulty cases; None for benign twins.
    expected_kind: Optional[str]


# --------------------------------------------------------------------------- patterns
def _heap_uaf_read(size: int, offset: int, faulty: bool) -> Program:
    """CWE-416: read through a pointer after free (Figure 1, left)."""
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", size)
        main.mov_imm("r8", 0x41)
        main.store("r1", "r8", offset)
        main.load("r9", "r1", offset)
        if faulty:
            main.free("r1")
            main.load("r10", "r1", offset)
        else:
            main.load("r10", "r1", offset)
            main.free("r1")
    return builder.build()


def _heap_uaf_write(size: int, offset: int, faulty: bool) -> Program:
    """CWE-416: write through a pointer after free."""
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", size)
        main.mov_imm("r8", 0x42)
        if faulty:
            main.free("r1")
            main.store("r1", "r8", offset)
        else:
            main.store("r1", "r8", offset)
            main.free("r1")
    return builder.build()


def _heap_uaf_realloc(size: int, offset: int, faulty: bool) -> Program:
    """CWE-416 with reallocation: the freed chunk is re-used by a new
    allocation of the same size before the dangling access (the case
    location-based checkers cannot detect, §2.1)."""
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", size)
        main.mov("r2", "r1")           # q = p (alias)
        main.mov_imm("r8", 0x1234)
        main.store("r1", "r8", offset)
        if faulty:
            main.free("r1")
        main.malloc("r3", size)        # r = malloc(size): likely reuses the chunk
        main.mov_imm("r9", 0xBEEF)
        main.store("r3", "r9", offset)
        main.load("r10", "r2", offset)  # dereference q
        if not faulty:
            main.free("r1")
        main.free("r3")
    return builder.build()


def _heap_uaf_alias(size: int, aliases: int, faulty: bool) -> Program:
    """CWE-416: the dangling access happens through a chain of copies."""
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", size)
        reg = "r1"
        for index in range(aliases):
            nxt = f"r{2 + index}"
            main.mov(nxt, reg)
            reg = nxt
        if faulty:
            main.free("r1")
            main.load("r9", reg, 0)
        else:
            main.load("r9", reg, 0)
            main.free("r1")
    return builder.build()


def _heap_uaf_offset(size: int, offset: int, faulty: bool) -> Program:
    """CWE-416: dangling pointer produced by pointer arithmetic."""
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", size)
        main.add_imm("r2", "r1", offset)
        main.mov_imm("r8", 7)
        main.store("r2", "r8", 0)
        if faulty:
            main.free("r1")
            main.load("r9", "r2", 0)
        else:
            main.load("r9", "r2", 0)
            main.free("r1")
    return builder.build()


def _heap_uaf_via_memory(size: int, slot: int, faulty: bool) -> Program:
    """CWE-416: the pointer is spilled to memory and reloaded before use,
    exercising the shadow-space metadata path (§3.3)."""
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", size)
        main.malloc("r2", 64)                     # a table holding pointers
        main.store_ptr("r2", "r1", slot)          # table[slot] = p
        if faulty:
            main.free("r1")
        main.load_ptr("r3", "r2", slot)           # q = table[slot]
        main.load("r9", "r3", 0)                  # *q
        if not faulty:
            main.free("r1")
        main.free("r2")
    return builder.build()


def _heap_uaf_across_call(size: int, depth: int, faulty: bool) -> Program:
    """CWE-416: the free happens inside a callee, the use in the caller."""
    builder = ProgramBuilder()
    with builder.function("victim") as victim:
        if faulty:
            victim.free("r1")
        victim.ret()
    if depth > 1:
        with builder.function("wrapper") as wrapper:
            wrapper.call("victim")
            wrapper.ret()
    with builder.function("main") as main:
        main.malloc("r1", size)
        main.mov_imm("r8", 3)
        main.store("r1", "r8", 0)
        main.call("wrapper" if depth > 1 else "victim")
        main.load("r9", "r1", 0)
        if not faulty:
            main.free("r1")
    return builder.build()


def _double_free(size: int, spacing: int, faulty: bool) -> Program:
    """CWE-416 companion: calling free twice on the same allocation."""
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", size)
        main.mov("r2", "r1")
        for _ in range(spacing):
            main.mov_imm("r8", 1)
        main.free("r1")
        if faulty:
            main.free("r2")
    return builder.build()


def _stack_return_address(size: int, slot: int, faulty: bool) -> Program:
    """CWE-562: a callee publishes the address of a local; the caller uses it
    after the frame is popped (Figure 1, right)."""
    builder = ProgramBuilder()
    with builder.function("foo") as foo:
        foo.stack_alloc("r1", size)                 # int a;  r1 = &a
        foo.mov_imm("r8", 0x77)
        foo.store("r1", "r8", 0)
        foo.global_addr("r2", slot)
        foo.store_ptr("r2", "r1", 0)                # q = &a  (q is a global)
        foo.ret()
    with builder.function("main") as main:
        main.call("foo")
        main.global_addr("r2", slot)
        main.load_ptr("r3", "r2", 0)                # reload q
        if faulty:
            main.load("r9", "r3", 0)                # *q after foo returned
        else:
            main.mov_imm("r9", 0)
    return builder.build()


def _stack_uaf_register(size: int, depth: int, faulty: bool) -> Program:
    """CWE-562: the stale stack address stays in a register across return."""
    builder = ProgramBuilder()
    with builder.function("leaf") as leaf:
        leaf.stack_alloc("r1", size)
        leaf.mov_imm("r8", 0x11)
        leaf.store("r1", "r8", 0)
        leaf.ret()
    current = "leaf"
    for level in range(depth - 1):
        name = f"level{level}"
        with builder.function(name) as wrapper:
            wrapper.call(current)
            wrapper.ret()
        current = name
    with builder.function("main") as main:
        main.call(current)
        if faulty:
            main.load("r9", "r1", 0)
        else:
            main.mov_imm("r9", 0)
    return builder.build()


# --------------------------------------------------------------------------- the suite
#: pattern name -> (CWE id, expected violation kind, builder, parameter grid)
_PatternSpec = Tuple[str, str, Callable[..., Program], List[Tuple]]


def _pattern_specs() -> List[_PatternSpec]:
    sizes = [8, 16, 32, 48, 64, 96, 128, 256]
    offsets = [0, 8, 16, 24]
    specs: List[_PatternSpec] = [
        ("heap-uaf-read", "CWE-416", _heap_uaf_read,
         [(s, o) for s in sizes for o in offsets if o < s]),
        ("heap-uaf-write", "CWE-416", _heap_uaf_write,
         [(s, o) for s in sizes for o in offsets if o < s]),
        ("heap-uaf-realloc", "CWE-416", _heap_uaf_realloc,
         [(s, o) for s in sizes for o in offsets if o < s]),
        ("heap-uaf-alias", "CWE-416", _heap_uaf_alias,
         [(s, a) for s in sizes for a in (1, 2, 3, 4)]),
        ("heap-uaf-offset", "CWE-416", _heap_uaf_offset,
         [(s, o) for s in sizes for o in (8, 16, 24) if o < s]),
        ("heap-uaf-via-memory", "CWE-416", _heap_uaf_via_memory,
         [(s, o) for s in sizes for o in (0, 8, 16, 24, 32)]),
        ("heap-uaf-across-call", "CWE-416", _heap_uaf_across_call,
         [(s, d) for s in sizes for d in (1, 2)]),
        ("double-free", "CWE-416", _double_free,
         [(s, n) for s in sizes for n in (0, 1, 2, 4)]),
        ("stack-return-address", "CWE-562", _stack_return_address,
         [(s, o) for s in (8, 16, 32, 64) for o in (0, 8, 16, 24, 32, 40)]),
        ("stack-uaf-register", "CWE-562", _stack_uaf_register,
         [(s, d) for s in (8, 16, 32, 64) for d in (1, 2, 3, 4)]),
    ]
    return specs


_EXPECTED_KIND = {
    "double-free": "double-free",
}


class JulietSuite:
    """Generates the 291 faulty cases and their benign twins."""

    def __init__(self, case_count: int = JULIET_CASE_COUNT):
        if case_count <= 0:
            raise ProgramError("case_count must be positive")
        self.case_count = case_count

    def _iter_parameterizations(self):
        specs = _pattern_specs()
        indices = [0] * len(specs)
        produced = 0
        # Round-robin over the patterns so every flavour is represented even
        # for small case counts.
        while produced < self.case_count:
            progressed = False
            for spec_index, (name, cwe, build, grid) in enumerate(specs):
                if produced >= self.case_count:
                    break
                if indices[spec_index] >= len(grid):
                    continue
                params = grid[indices[spec_index]]
                indices[spec_index] += 1
                progressed = True
                produced += 1
                yield name, cwe, build, params, produced
            if not progressed:
                # Grids exhausted before reaching the requested count: reuse
                # parameterizations with a repetition index (distinct names).
                for spec_index in range(len(specs)):
                    indices[spec_index] = 0

    def faulty_cases(self) -> List[JulietCase]:
        """The ``case_count`` faulty use-after-free cases."""
        cases: List[JulietCase] = []
        for name, cwe, build, params, ordinal in self._iter_parameterizations():
            program = build(*params, True)
            expected = _EXPECTED_KIND.get(name, "use-after-free")
            cases.append(JulietCase(
                name=f"{cwe}-{name}-{ordinal:03d}", cwe=cwe, pattern=name,
                program=program, expected_kind=expected))
        return cases

    def benign_cases(self, count: Optional[int] = None) -> List[JulietCase]:
        """Benign twins (no temporal error) for false-positive testing."""
        limit = count if count is not None else self.case_count
        cases: List[JulietCase] = []
        for name, cwe, build, params, ordinal in self._iter_parameterizations():
            if len(cases) >= limit:
                break
            program = build(*params, False)
            cases.append(JulietCase(
                name=f"{cwe}-{name}-benign-{ordinal:03d}", cwe=cwe, pattern=name,
                program=program, expected_kind=None))
        return cases

    def patterns(self) -> List[str]:
        return [spec[0] for spec in _pattern_specs()]
