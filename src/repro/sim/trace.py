"""Dynamic traces and their timing-annotation rules.

A *dynamic trace* is the sequence of macro-instruction instances a workload
executes, each annotated with the concrete effective address it touched (for
memory operations), the lock location of the object it points into (so check
µops know which lock word they read), and a branch-misprediction flag.  Both
the synthetic SPEC-like workloads and the functional machine produce dynamic
traces in this form.

The stream compiler (:mod:`repro.sim.compiled`) expands a dynamic trace
into the µop stream the timing model replays: baseline µops plus the
Watchdog µops injected by :class:`repro.core.uop_injection.UopInjector`,
each memory µop tagged by the rules below with the address and cache port
it accesses (data cache, shadow space, or the lock location cache/port).
The compiler reads a trace as :class:`TraceTokens`: the synthetic workloads
emit that form directly, and :func:`repro.sim.compiled.tokenize` builds it
from any other :class:`DynamicOp` source.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.isa.instructions import Instruction
from repro.isa.microops import UopKind
from repro.memory.hierarchy import PortKind


@dataclass
class DynamicOp:
    """One dynamic macro-instruction instance in a workload trace."""

    instruction: Instruction
    #: Effective address for memory operations.
    address: Optional[int] = None
    #: Lock location of the allocation the address falls in (what the check
    #: µop will read).  ``None`` means the access is through a register with
    #: no metadata (e.g. unannotated integer address).
    lock_address: Optional[int] = None
    #: Whether a branch instance was mispredicted (charged a refill penalty).
    mispredicted: bool = False


#: A token column's "no address" (``None`` on :class:`DynamicOp`): addresses
#: and lock locations are non-negative.
NO_ADDRESS = -1


class TraceTokens:
    """A dynamic trace as four ``array("q")`` columns over interned identities.

    Row ``i`` is op ``i``: ``tids[i]`` indexes ``insts`` (one representative
    :class:`Instruction` per identity, numbered in first-seen order),
    ``addrs[i]`` and ``locks[i]`` hold its address and lock location or
    :data:`NO_ADDRESS`, and ``mis[i]`` is 1 for a mispredicted branch.

    The columns are what the stream compiler reads.  As a sequence the
    tokens read as the :class:`DynamicOp` s they stand for, built on demand
    (a slice is a list of them), and they compare equal to a tuple or list
    of the same ops.  Tokens hold mutable columns, so they are unhashable.
    """

    __slots__ = ("tids", "addrs", "locks", "mis", "insts")

    def __init__(self, tids=None, addrs=None, locks=None, mis=None,
                 insts=None):
        self.tids = array("q") if tids is None else tids
        self.addrs = array("q") if addrs is None else addrs
        self.locks = array("q") if locks is None else locks
        self.mis = array("q") if mis is None else mis
        self.insts: List[Instruction] = [] if insts is None else insts

    def __len__(self) -> int:
        return len(self.tids)

    def _op(self, tid: int, address: int, lock: int, mis: int) -> DynamicOp:
        return DynamicOp(self.insts[tid],
                         None if address == NO_ADDRESS else address,
                         None if lock == NO_ADDRESS else lock, bool(mis))

    def __iter__(self) -> Iterator[DynamicOp]:
        op = self._op
        for row in zip(self.tids, self.addrs, self.locks, self.mis):
            yield op(*row)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._op(self.tids[index], self.addrs[index],
                        self.locks[index], self.mis[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceTokens):
            return (self.tids == other.tids and self.addrs == other.addrs
                    and self.locks == other.locks and self.mis == other.mis
                    and self.insts == other.insts)
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"TraceTokens({len(self)} ops, {len(self.insts)} identities)"


# -- timing-annotation rules -------------------------------------------------
#
# For a fixed configuration the annotation of a µop is a pure function of its
# *kind*: which address it presents to the hierarchy (the dynamic op's data
# address, its shadow translation, its lock location, or the synthetic frame
# lock stack), which L1 port it uses, and whether it writes.  The stream
# compiler lowers each instruction template through these tables once.

#: Address-derivation rules.
ADDR_DATA = 1      #: the dynamic op's effective address
ADDR_SHADOW = 2    #: shadow translation of the effective address
ADDR_LOCK = 3      #: the dynamic op's lock location
ADDR_FRAME_PUSH = 4  #: push onto the synthetic frame-lock stack, then use
ADDR_FRAME_POP = 5   #: use the synthetic frame-lock stack top, then pop

#: kind -> (addr_rule, port, is_write).  Kinds not listed access no memory.
ANNOTATION_RULES = {
    UopKind.LOAD: (ADDR_DATA, PortKind.DATA, False),
    UopKind.STORE: (ADDR_DATA, PortKind.DATA, True),
    UopKind.SHADOW_LOAD: (ADDR_SHADOW, PortKind.SHADOW, False),
    UopKind.SHADOW_STORE: (ADDR_SHADOW, PortKind.SHADOW, True),
    UopKind.CHECK: (ADDR_LOCK, PortKind.LOCK, False),
    UopKind.SETIDENT: (ADDR_LOCK, PortKind.LOCK, True),
    UopKind.GETIDENT: (ADDR_LOCK, PortKind.LOCK, False),
    UopKind.LOCK_PUSH: (ADDR_FRAME_PUSH, PortKind.LOCK, True),
    UopKind.LOCK_POP: (ADDR_FRAME_POP, PortKind.LOCK, True),
}

#: Kinds whose execution latency comes from the memory hierarchy (loads).
#: The other memory kinds (stores) update cache state and statistics off the
#: critical path and retire at their fixed latency.
HIERARCHY_LATENCY_KINDS = frozenset({
    UopKind.LOAD, UopKind.SHADOW_LOAD, UopKind.CHECK, UopKind.GETIDENT,
})

#: Kinds occupying the load queue / store queue.
LQ_KINDS = frozenset({UopKind.LOAD, UopKind.SHADOW_LOAD})
SQ_KINDS = frozenset({UopKind.STORE, UopKind.SHADOW_STORE})
