"""End-to-end exploit scenarios.

The motivation for Watchdog is that use-after-free bugs are *exploitable*:
after a free, the attacker arranges for the memory to be reallocated and
filled with attacker-controlled data, so the victim's dangling pointer now
reads (or overwrites) attacker-chosen values (§1).  These scenarios build
small programs in which the "attack" observably succeeds on an unprotected
baseline — the victim reads the attacker's planted value — and are used by
the examples and the security tests to show that Watchdog detects the
dangling access before the corrupted value is ever consumed.

The buffer-overflow scenario exercises the bounds extension (§8): it only
triggers a violation under the full-memory-safety configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.program.builder import ProgramBuilder
from repro.program.ir import Program

#: The value the attacker plants; scenarios check whether the victim read it.
ATTACKER_VALUE = 0xDEAD_BEEF_F00D
#: The value the victim originally stored.
VICTIM_VALUE = 0x1111_2222_3333


@dataclass
class AttackScenario:
    """One exploit scenario."""

    name: str
    description: str
    build: Callable[[], Program]
    #: Register holding the value the victim ultimately consumed.
    observed_register: str
    #: Violation kind Watchdog is expected to raise (None if the scenario is
    #: only detectable with the bounds extension).
    expected_kind: Optional[str]
    #: True if detection requires the bounds extension (§8).
    requires_bounds: bool = False

    def program(self) -> Program:
        return self.build()


# ----------------------------------------------------------------------- scenarios
def _heap_uaf_hijack() -> Program:
    """Classic heap use-after-free hijack via reallocation.

    The victim allocates an object holding a sensitive value, keeps an alias,
    frees it, and later reads through the alias.  In between, the attacker
    grabs an allocation of the same size — the allocator hands back the same
    chunk — and plants a payload, which is what the victim then reads.
    """
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", 64)                     # victim object
        main.mov("r2", "r1")                      # victim keeps an alias
        main.mov_imm("r8", VICTIM_VALUE)
        main.store("r1", "r8", 8)
        main.free("r1")                           # premature free
        main.malloc("r3", 64)                     # attacker allocation (reuses chunk)
        main.mov_imm("r9", ATTACKER_VALUE)
        main.store("r3", "r9", 8)                 # attacker plants payload
        main.load("r10", "r2", 8)                 # victim reads via dangling alias
    return builder.build()


def _stack_uaf_hijack() -> Program:
    """Stack use-after-free: a published local address is read after the
    frame is popped and overwritten by a later call's frame."""
    builder = ProgramBuilder()
    with builder.function("publish_local") as publish:
        publish.stack_alloc("r1", 32)
        publish.mov_imm("r8", VICTIM_VALUE)
        publish.store("r1", "r8", 0)
        publish.global_addr("r2", 0)
        publish.store_ptr("r2", "r1", 0)          # global = &local
        publish.ret()
    with builder.function("attacker_frame") as attacker:
        attacker.stack_alloc("r4", 32)
        attacker.mov_imm("r9", ATTACKER_VALUE)
        attacker.store("r4", "r9", 0)             # clobbers the stale slot
        attacker.ret()
    with builder.function("main") as main:
        main.call("publish_local")
        main.call("attacker_frame")
        main.global_addr("r2", 0)
        main.load_ptr("r3", "r2", 0)
        main.load("r10", "r3", 0)                 # read through stale stack pointer
    return builder.build()


def _double_free_corruption() -> Program:
    """Double free: the second free corrupts allocator state in real attacks;
    here the runtime's identifier check catches it directly (§4.1)."""
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", 48)
        main.mov("r2", "r1")
        main.free("r1")
        main.malloc("r3", 48)
        main.free("r2")                           # frees the attacker's chunk
        main.mov_imm("r10", 0)
    return builder.build()


def _heap_overflow() -> Program:
    """Sequential heap buffer overflow into an adjacent object (spatial
    violation — caught only with the bounds extension, §8)."""
    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", 32)                     # buffer
        main.malloc("r2", 32)                     # adjacent sensitive object
        main.mov_imm("r8", VICTIM_VALUE)
        main.store("r2", "r8", 0)
        main.mov_imm("r9", ATTACKER_VALUE)
        main.add_imm("r3", "r1", 40)              # past the end of the buffer
        main.store("r3", "r9", 0)                 # overflowing write
        main.load("r10", "r2", 0)                 # victim reads its object
    return builder.build()


def all_attack_scenarios() -> List[AttackScenario]:
    """Every exploit scenario used by the examples and the security tests."""
    return [
        AttackScenario(
            name="heap-uaf-hijack",
            description="use-after-free read of attacker-reallocated heap chunk",
            build=_heap_uaf_hijack,
            observed_register="r10",
            expected_kind="use-after-free"),
        AttackScenario(
            name="stack-uaf-hijack",
            description="read through a stale stack address overwritten by a later frame",
            build=_stack_uaf_hijack,
            observed_register="r10",
            expected_kind="use-after-free"),
        AttackScenario(
            name="double-free",
            description="second free of an already-freed (and reallocated) chunk",
            build=_double_free_corruption,
            observed_register="r10",
            expected_kind="double-free"),
        AttackScenario(
            name="heap-overflow",
            description="sequential overflow from one heap object into its neighbour",
            build=_heap_overflow,
            observed_register="r10",
            expected_kind="out-of-bounds",
            requires_bounds=True),
    ]
