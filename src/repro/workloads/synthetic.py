"""Synthetic SPEC-like workload generator: the trace-emission layer.

Generates a dynamic macro-instruction trace whose mix matches a
:class:`~repro.workloads.profiles.BenchmarkProfile`: memory intensity,
pointer density, allocation/call behaviour, locality and branch behaviour.
Heap addresses and lock locations come from the workload's heap
(:class:`~repro.workloads.heap.WorkloadHeap`), which places objects and
recycles lock locations by the rules of the repository's DL-malloc and
lock-location allocators, so the trace carries the addresses and lock
locations a real program on that runtime would — only the instruction
selection is synthetic.

The generator is split into two layers:

* :class:`~repro.workloads.state_core.WorkloadCore` (the base class) holds
  the workload's *functional state* — RNG stream, heap and object set,
  locality cursors, hot set — and drives the optional native kernel
  (:mod:`repro.workloads._ffcore`), which advances that state through skip
  windows, allocation events included, without producing any instructions:
  what makes §9.1 fast-forward windows at paper scale (100M+ instructions)
  tractable;
* :class:`SyntheticWorkload` (this module) defines the dynamic stream on
  top of that state, one event at a time (:meth:`_event_ops`), and emits it
  only where a trace is actually consumed: :meth:`trace` for conventional
  runs, :meth:`emit` for the warm-up/measure windows of a sampled run, with
  :meth:`fast_forward` covering the skip windows.

Windows come out as :class:`~repro.sim.trace.TraceTokens`, the stream
compiler's input for the Figure 5/7/8/9/10/11 experiments.  With the native
kernel loaded the kernel writes the token rows itself, each op's static
instruction named by its index in :data:`SHAPES`, and skips fast-forward
windows in C.  Otherwise the Python emitter below builds
:class:`~repro.sim.trace.DynamicOp` s and tokenizes them, and skip windows
draw its events and drop them.  The Python emitter is the one Python
definition of the stream — the kernel's oracle as well as its fallback —
and :meth:`generate` exposes it as an iterator of ops.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.isa.instructions import AccessSize, Instruction, Opcode, PointerHint
from repro.isa.registers import ArchReg, fp_reg, int_reg
from repro.sim.trace import NO_ADDRESS, DynamicOp, TraceTokens
from repro.workloads import _ffcore
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.state_core import MAX_EVENT_OPS, WorkloadCore

#: Registers used to hold addresses (pointers into live objects).
ADDRESS_REGS = tuple(int_reg(i) for i in range(1, 7))
#: Registers used for integer data values.
VALUE_REGS = tuple(int_reg(i) for i in range(7, 13))
#: Registers used for floating point data.
FP_REGS = tuple(fp_reg(i) for i in range(0, 6))

# Register picks, value rotation and ALU-opcode choices draw
# ``_randbelow(6)``: 6 is structural — the size of each register tuple above
# and of _ALU_OPCODES — not a tunable, so both this module and the native
# kernel keep it literal.

#: Number of ALU instructions emitted to stand in for the allocator's own
#: work on each malloc/free (the bulk of BASELINE_*_INSTRUCTIONS is loop code
#: we do not need to model instruction-by-instruction, but a handful of
#: dependent ALU ops preserves the front-end cost).
RUNTIME_CALL_ALU_OPS = 6

#: The two-register-source ALU opcodes drawn by :meth:`_alu_op` (identical
#: draw to ``rng.choice``: one ``_randbelow(6)`` selecting from this tuple).
_ALU_OPCODES = (Opcode.ADD_RI, Opcode.ADD_RI, Opcode.AND_RR,
                Opcode.XOR_RR, Opcode.ADD_RR, Opcode.MUL_RR)


#: A memory op's (pointer hint, access size, fp data register) by kind: 0
#: pointer, 1 word, 2 fp, 3 32-bit.
_MEMORY_KINDS = ((PointerHint.POINTER, AccessSize.WORD64, False),
                 (PointerHint.NOT_POINTER, AccessSize.WORD64, False),
                 (PointerHint.NOT_POINTER, AccessSize.WORD64, True),
                 (PointerHint.NOT_POINTER, AccessSize.WORD32, False))


def _shapes() -> List[tuple]:
    """Every static instruction shape the generator emits, as
    ``(opcode, dest, srcs, imm, size, pointer hint)`` fields, in the native
    kernel's shape-id order (the ``SH_*`` layout in
    :mod:`repro.workloads._ffcore`)."""
    word, unknown = AccessSize.WORD64, PointerHint.UNKNOWN
    shapes = [(Opcode.ADD_RI, reg, (reg,), 8, word, unknown)
              for reg in ADDRESS_REGS]
    for hint, size, fp in _MEMORY_KINDS:
        for is_load in (False, True):
            for address_reg in ADDRESS_REGS:
                for data_reg in FP_REGS if fp else VALUE_REGS:
                    if is_load:
                        shapes.append((Opcode.FLOAD if fp else Opcode.LOAD,
                                       data_reg, (address_reg,), 0, size,
                                       hint))
                    else:
                        shapes.append((Opcode.FSTORE if fp else Opcode.STORE,
                                       None, (address_reg, data_reg), 0, size,
                                       hint))
    shapes += [(Opcode.FADD, dest, (a, b), 0, word, unknown)
               for dest in FP_REGS for a in FP_REGS for b in FP_REGS]
    for rotation, dest in enumerate(VALUE_REGS):
        for chained in (False, True):
            a = VALUE_REGS[(rotation + (5 if chained else 2)) % 6]
            b = VALUE_REGS[(rotation + 4) % 6]
            shapes.append((Opcode.ADD_RI, dest, (a,), 1, word, unknown))
            shapes += [(opcode, dest, (a, b), 0, word, unknown)
                       for opcode in _ALU_OPCODES[2:]]
    shapes += [(Opcode.BRANCH, None, (reg,), 0, word, unknown)
               for reg in VALUE_REGS]
    shapes += [(Opcode.SETIDENT, None, (reg, VALUE_REGS[0]), 0, word, unknown)
               for reg in ADDRESS_REGS]
    shapes += [(Opcode.GETIDENT, VALUE_REGS[0], (reg,), 0, word, unknown)
               for reg in ADDRESS_REGS]
    shapes += [(Opcode.CALL, None, (), 0, word, unknown),
               (Opcode.RET, None, (), 0, word, unknown)]
    assert len(shapes) == _ffcore.N_SHAPES
    return shapes


#: Shape id -> instruction fields, and back.
SHAPES = _shapes()
SHAPE_IDS = {shape: index for index, shape in enumerate(SHAPES)}

#: Shape id -> its :class:`Instruction`: every instruction the generator
#: emits, built once per process.  Instructions are immutable by
#: convention and every consumer (compiler, tokenizer, trace equality)
#: compares them by value, so all workloads share this one table.
SHAPE_INSTRUCTIONS = tuple(
    Instruction(opcode, dest=dest, srcs=srcs, imm=imm, size=size,
                pointer_hint=hint)
    for opcode, dest, srcs, imm, size, hint in SHAPES)


def _instruction(opcode: Opcode, dest: Optional[ArchReg] = None,
                 srcs: Tuple[ArchReg, ...] = (), imm: int = 0,
                 size: AccessSize = AccessSize.WORD64,
                 hint: PointerHint = PointerHint.UNKNOWN) -> Instruction:
    """The :data:`SHAPE_INSTRUCTIONS` entry with these fields."""
    return SHAPE_INSTRUCTIONS[SHAPE_IDS[(opcode, dest, srcs, imm, size, hint)]]


def _memory_instruction(kind: int, is_load: bool, address: ArchReg,
                        data: ArchReg) -> Instruction:
    hint, size, fp = _MEMORY_KINDS[kind]
    if is_load:
        return _instruction(Opcode.FLOAD if fp else Opcode.LOAD, data,
                            (address,), 0, size, hint)
    return _instruction(Opcode.FSTORE if fp else Opcode.STORE, None,
                        (address, data), 0, size, hint)


def _alu_instruction(rotation: int, chained: bool,
                     choice: int) -> Instruction:
    """``_alu_op``'s integer instruction: the destination is the value
    register at ``rotation``, the first source the previous destination
    when ``chained``, and ``choice`` indexes :data:`_ALU_OPCODES`."""
    dest = VALUE_REGS[rotation]
    a = VALUE_REGS[(rotation + (5 if chained else 2)) % 6]
    b = VALUE_REGS[(rotation + 4) % 6]
    opcode = _ALU_OPCODES[choice]
    if opcode is Opcode.ADD_RI:
        return _instruction(opcode, dest, (a,), 1)
    return _instruction(opcode, dest, (a, b))


# The Python emitter's instructions, indexed by its draws (positions in the
# register tuples, a memory kind, the chain flag, the opcode choice), looked
# up in SHAPE_IDS once per process so that no emitted op hashes a shape.
_REFRESH = tuple(_instruction(Opcode.ADD_RI, a, (a,), 8) for a in ADDRESS_REGS)
#: [kind][is_load][address register][data register]
_MEMORY = tuple(
    tuple(tuple(tuple(_memory_instruction(kind, is_load, address, data)
                      for data in (FP_REGS if fp else VALUE_REGS))
                for address in ADDRESS_REGS)
          for is_load in (False, True))
    for kind, (_, _, fp) in enumerate(_MEMORY_KINDS))
#: [dest][a][b]
_FADD = tuple(tuple(tuple(_instruction(Opcode.FADD, dest, (a, b))
                          for b in FP_REGS) for a in FP_REGS)
              for dest in FP_REGS)
#: [rotation][chained][opcode choice]
_ALU = tuple(tuple(tuple(_alu_instruction(rotation, chained, choice)
                         for choice in range(len(_ALU_OPCODES)))
                   for chained in (False, True))
             for rotation in range(len(VALUE_REGS)))
_BRANCH = tuple(_instruction(Opcode.BRANCH, None, (v,)) for v in VALUE_REGS)
_SETIDENT = tuple(_instruction(Opcode.SETIDENT, None, (p, VALUE_REGS[0]))
                  for p in ADDRESS_REGS)
_GETIDENT = tuple(_instruction(Opcode.GETIDENT, VALUE_REGS[0], (p,))
                  for p in ADDRESS_REGS)
_CALL = _instruction(Opcode.CALL)
_RET = _instruction(Opcode.RET)


class SyntheticWorkload(WorkloadCore):
    """Generates dynamic traces with a given benchmark's characteristics."""

    def __init__(self, profile: BenchmarkProfile, seed: int = 0):
        #: Ops of an event split by a sampled-window boundary, waiting for
        #: the next window (`fast_forward` discards into it, `emit` drains
        #: from it) — the continuous-stream equivalent of the suspended
        #: generator the sampled segmentation used to hold open.  One
        #: ``(shape id, address, lock, mispredict)`` row per op, in the
        #: token columns' encoding, whichever emitter produced it.
        self._pending: List[Tuple[int, int, int, int]] = []
        super().__init__(profile, seed=seed)

    # -- register selection -----------------------------------------------------------
    def _value_reg(self) -> int:
        """Rotate to the next value register; returns its index."""
        self._value_rotation = (self._value_rotation + 1) % len(VALUE_REGS)
        return self._value_rotation

    # -- instruction emission --------------------------------------------------------------
    def _memory_op(self) -> Iterator[DynamicOp]:
        profile = self.profile
        roll = self.rng.random()
        is_load = self.rng.random() < profile.load_fraction

        if roll < profile.pointer_fraction:
            kind = 0
        elif roll < profile.word_integer_fraction:
            kind = 1
        elif roll < profile.word_integer_fraction + profile.fp_access_fraction:
            kind = 2
        else:
            kind = 3

        address, lock = self._memory_target(4 if kind == 3 else 8,
                                            pointer_access=kind == 0)
        address_reg = self._randbelow(6)

        # Occasionally refresh the address register with pointer arithmetic so
        # memory operations have realistic address dependences.
        if self.rng.random() < 0.25:
            yield DynamicOp(_REFRESH[address_reg])

        data_reg = self._randbelow(6) if kind == 2 else self._value_reg()
        yield DynamicOp(_MEMORY[kind][is_load][address_reg][data_reg],
                        address=address, lock_address=lock)

    def _alu_op(self) -> DynamicOp:
        if self.rng.random() < self.profile.fp_compute_fraction:
            randbelow = self._randbelow
            dest, a, b = randbelow(6), randbelow(6), randbelow(6)
            return DynamicOp(_FADD[dest][a][b])
        rotation = self._value_reg()
        # A dependent chain consumes the most recently produced value.
        chained = self.rng.random() < 0.35
        # Pointer-arithmetic-style single-source operations dominate; the
        # two-register-source forms (which cost a select µop under Watchdog,
        # §6.2) are a smaller slice, matching the "other" segment of Figure 8.
        return DynamicOp(_ALU[rotation][chained][self._randbelow(6)])

    def _branch_op(self) -> DynamicOp:
        mispredicted = self.rng.random() < self.profile.mispredict_rate
        return DynamicOp(_BRANCH[self._value_reg()], mispredicted=mispredicted)

    def _runtime_call_ops(self, lock_address: int, is_alloc: bool) -> Iterator[DynamicOp]:
        """Instructions standing in for the malloc/free runtime body."""
        for _ in range(RUNTIME_CALL_ALU_OPS):
            yield self._alu_op()
        table = _SETIDENT if is_alloc else _GETIDENT
        yield DynamicOp(table[self._randbelow(6)], lock_address=lock_address)

    def _allocation_event(self) -> Iterator[DynamicOp]:
        # Keep the working set roughly constant: free one object for every
        # allocation once the target population is reached.
        freed_lock = None
        if len(self._order) >= self.profile.working_set_objects:
            freed_lock = self._free_random_object()
        if freed_lock is not None:
            yield from self._runtime_call_ops(freed_lock, is_alloc=False)
        lock = self._allocate_object()
        yield from self._runtime_call_ops(lock, is_alloc=True)

    def _call_event(self) -> Iterator[DynamicOp]:
        if self._call_depth < 16 and self.rng.random() < 0.6:
            self._call_depth += 1
            yield DynamicOp(_CALL)
        elif self._call_depth > 0:
            self._call_depth -= 1
            yield DynamicOp(_RET)

    def _event_ops(self) -> List[DynamicOp]:
        """Materialize the next event of the continuous dynamic stream.

        Events draw all their randomness up front (the list is built before
        anything is consumed), so window boundaries can split an event's ops
        without perturbing the draw sequence.
        """
        roll = self.rng.random()
        if roll < self._alloc_probability:
            return list(self._allocation_event())
        if roll < self._ac_probability:
            return list(self._call_event())
        if roll < self._mem_hi:
            return list(self._memory_op())
        if roll < self._br_hi:
            return [self._branch_op()]
        return [self._alu_op()]

    # -- the generator ------------------------------------------------------------------------
    def generate(self, instructions: int) -> Iterator[DynamicOp]:
        """Yield approximately ``instructions`` dynamic macro operations.

        This is the stand-alone streaming API, in Python: each call starts
        at the next event boundary and a final event truncated by the limit
        has its tail *discarded*, exactly like :meth:`trace`.  The
        continuous-stream APIs (:meth:`emit`/:meth:`fast_forward`) keep
        split events pending instead and cannot be mixed with this one.
        """
        self._refuse_pending("generate")
        emitted = 0
        while emitted < instructions:
            for op in self._event_ops():
                yield op
                emitted += 1
                if emitted >= instructions:
                    return

    def trace(self, instructions: int) -> TraceTokens:
        """The next ``instructions`` ops as token columns, starting at an
        event boundary and discarding the tail of a final split event
        (what unsampled bundles are built from)."""
        self._refuse_pending("trace")
        return self._window(instructions, keep_tail=False)

    def _refuse_pending(self, api: str) -> None:
        if self._pending:
            raise ConfigurationError(
                f"{api}() cannot follow fast_forward()/emit() mid-event; "
                f"use emit() to continue the continuous stream")

    # -- the continuous-stream window APIs (§9.1 sampled segmentation) ---------------
    def emit(self, count: int) -> TraceTokens:
        """The next ``count`` ops of the continuous stream, as token columns.

        Equivalent to ``islice`` over one never-restarted :meth:`generate`
        run: an event split by the window boundary keeps its tail pending for
        the next :meth:`emit`/:meth:`fast_forward` call.
        """
        return self._window(count, keep_tail=True)

    def fast_forward(self, count: int) -> None:
        """Advance the functional state across ``count`` ops of the stream.

        The RNG position, heap, working set and locality cursors
        end up bit-identical to ``emit(count)`` with the result thrown away —
        that equivalence is what keeps sampled traces unchanged — but the
        skip window is never tokenized.  While at least ``MAX_EVENT_OPS``
        ops remain, whole events are skipped: in C by the native kernel,
        without one by drawing the emission layer's events and dropping
        them.  The last few ops are emitted, so an event straddling the
        window boundary leaves its tail pending.

        Because consecutive calls compose (``fast_forward(a + b)`` ≡
        ``fast_forward(a); fast_forward(b)``, both golden-pinned), any window
        of the continuous stream can be re-entered from a fresh workload —
        which is what :meth:`repro.workloads.streaming.SampleStream.segment`
        exploits to regenerate one §9.1 sample bit-identically on demand.
        """
        if count <= 0:
            return
        pending = self._pending
        dropped = min(count, len(pending))
        del pending[:dropped]
        count -= dropped
        if self._ffcore is not None and count >= MAX_EVENT_OPS:
            count = self._run_kernel(count)
        while count >= MAX_EVENT_OPS:
            count -= len(self._event_ops())
        if count:
            self._window(count, keep_tail=True)

    def _window(self, count: int, keep_tail: bool) -> TraceTokens:
        """``count`` ops as tokens, pending rows first; the tail of a final
        split event stays pending when ``keep_tail``, else it is dropped.

        The native kernel writes the rows itself; without it the Python
        emitter materializes the ops and :func:`repro.sim.compiled.tokenize`
        reduces them, numbering identities the same way.
        """
        if self._ffcore is None:
            return self._python_window(count, keep_tail)
        pending = self._pending
        columns = [array("q", [0]) * (count + MAX_EVENT_OPS - 1)
                   for _ in range(4)]
        written = min(count, len(pending))
        for index, row in enumerate(pending[:written]):
            for column, value in zip(columns, row):
                column[index] = value
        del pending[:written]
        if written < count:
            written = self._run_kernel(count - written, columns, written)
        if keep_tail:
            pending.extend(zip(*(column[count:written] for column in columns)))
        for column in columns:
            del column[count:]
        shapes = columns[0]
        seen = array("q", [0]) * _ffcore.N_SHAPES
        distinct = self._ffcore.ff_intern(shapes.buffer_info()[0], count,
                                          seen.buffer_info()[0])
        if distinct < 0:
            raise RuntimeError("native kernel wrote an unknown shape id")
        return TraceTokens(shapes, columns[1], columns[2], columns[3],
                           [SHAPE_INSTRUCTIONS[shape]
                            for shape in seen[:distinct]])

    def _python_window(self, count: int, keep_tail: bool) -> TraceTokens:
        """The Python emitter: the fallback, and the kernel's oracle."""
        from repro.sim import compiled

        pending = self._pending
        ops = [DynamicOp(SHAPE_INSTRUCTIONS[shape],
                         None if address == NO_ADDRESS else address,
                         None if lock == NO_ADDRESS else lock, bool(mis))
               for shape, address, lock, mis in pending[:count]]
        del pending[:count]
        while len(ops) < count:
            event = self._event_ops()
            need = count - len(ops)
            ops.extend(event[:need])
            if keep_tail:
                pending.extend(
                    (SHAPE_IDS[_shape_key(op.instruction)],
                     NO_ADDRESS if op.address is None else op.address,
                     NO_ADDRESS if op.lock_address is None
                     else op.lock_address, int(op.mispredicted))
                    for op in event[need:])
        return compiled.tokenize(ops)


def _shape_key(inst: Instruction) -> tuple:
    """An emitted instruction's :data:`SHAPES` entry."""
    return (inst.opcode, inst.dest, inst.srcs, inst.imm, inst.size,
            inst.pointer_hint)
