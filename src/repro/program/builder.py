"""Fluent builder API for constructing programs.

The builder is the reproduction's stand-in for writing small C programs: the
examples, the Juliet-style use-after-free suite and many tests construct
programs through it.  Every method appends one operation to the current
function and returns the builder so calls can be chained.

Example (the heap use-after-free of Figure 1, left)::

    builder = ProgramBuilder()
    with builder.function("main") as main:
        main.malloc("r1", 8)            # p = malloc(8)
        main.mov("r2", "r1")            # q = p
        main.free("r1")                 # free(p)
        main.malloc("r3", 8)            # r = malloc(8)
        main.load("r4", "r2")           # ... = *q   <- dangling dereference
    program = builder.build()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Union

from repro.errors import ProgramError
from repro.isa.instructions import AccessSize, Instruction, Opcode, PointerHint
from repro.isa.registers import ArchReg, parse_reg
from repro.program.ir import Function, OpKind, Operation, Program

RegLike = Union[str, ArchReg]


def _reg(value: RegLike) -> ArchReg:
    if isinstance(value, ArchReg):
        return value
    return parse_reg(value)


def _size(size_bytes: int) -> AccessSize:
    try:
        return AccessSize(size_bytes)
    except ValueError:
        raise ProgramError(f"unsupported access size {size_bytes}") from None


class FunctionBuilder:
    """Builds one function; obtained from :meth:`ProgramBuilder.function`."""

    def __init__(self, name: str):
        self._function = Function(name=name)

    # -- data movement / arithmetic -------------------------------------------------
    def mov(self, dest: RegLike, src: RegLike) -> "FunctionBuilder":
        """``dest = src`` (propagates pointer metadata, §6.2 case one)."""
        return self._macro(Instruction(Opcode.MOV_RR, dest=_reg(dest), srcs=(_reg(src),)))

    def mov_imm(self, dest: RegLike, value: int) -> "FunctionBuilder":
        """``dest = constant`` (destination metadata becomes invalid)."""
        return self._macro(Instruction(Opcode.MOV_RI, dest=_reg(dest), imm=value))

    def add(self, dest: RegLike, a: RegLike, b: RegLike) -> "FunctionBuilder":
        """``dest = a + b`` (either source may be the pointer; select, §6.2)."""
        return self._macro(Instruction(Opcode.ADD_RR, dest=_reg(dest),
                                       srcs=(_reg(a), _reg(b))))

    def add_imm(self, dest: RegLike, src: RegLike, imm: int) -> "FunctionBuilder":
        """``dest = src + imm`` (pointer arithmetic; metadata copied)."""
        return self._macro(Instruction(Opcode.ADD_RI, dest=_reg(dest),
                                       srcs=(_reg(src),), imm=imm))

    def sub_imm(self, dest: RegLike, src: RegLike, imm: int) -> "FunctionBuilder":
        return self._macro(Instruction(Opcode.SUB_RI, dest=_reg(dest),
                                       srcs=(_reg(src),), imm=imm))

    def mul(self, dest: RegLike, a: RegLike, b: RegLike) -> "FunctionBuilder":
        """``dest = a * b`` (never a pointer; metadata invalidated)."""
        return self._macro(Instruction(Opcode.MUL_RR, dest=_reg(dest),
                                       srcs=(_reg(a), _reg(b))))

    def xor(self, dest: RegLike, a: RegLike, b: RegLike) -> "FunctionBuilder":
        return self._macro(Instruction(Opcode.XOR_RR, dest=_reg(dest),
                                       srcs=(_reg(a), _reg(b))))

    # -- memory -----------------------------------------------------------------------
    def load(self, dest: RegLike, address: RegLike, offset: int = 0,
             size: int = 8, hint: PointerHint = PointerHint.UNKNOWN) -> "FunctionBuilder":
        """``dest = memory[address + offset]``."""
        return self._macro(Instruction(Opcode.LOAD, dest=_reg(dest),
                                       srcs=(_reg(address),), imm=offset,
                                       size=_size(size), pointer_hint=hint))

    def store(self, address: RegLike, value: RegLike, offset: int = 0,
              size: int = 8, hint: PointerHint = PointerHint.UNKNOWN) -> "FunctionBuilder":
        """``memory[address + offset] = value``."""
        return self._macro(Instruction(Opcode.STORE, srcs=(_reg(address), _reg(value)),
                                       imm=offset, size=_size(size), pointer_hint=hint))

    def load_ptr(self, dest: RegLike, address: RegLike, offset: int = 0) -> "FunctionBuilder":
        """A load the compiler annotated as loading a pointer (§5.2)."""
        return self.load(dest, address, offset, hint=PointerHint.POINTER)

    def store_ptr(self, address: RegLike, value: RegLike, offset: int = 0) -> "FunctionBuilder":
        """A store the compiler annotated as storing a pointer (§5.2)."""
        return self.store(address, value, offset, hint=PointerHint.POINTER)

    def fload(self, dest: RegLike, address: RegLike, offset: int = 0) -> "FunctionBuilder":
        """Floating-point load (never a pointer operation, §5.1)."""
        return self._macro(Instruction(Opcode.FLOAD, dest=_reg(dest),
                                       srcs=(_reg(address),), imm=offset))

    def fstore(self, address: RegLike, value: RegLike, offset: int = 0) -> "FunctionBuilder":
        return self._macro(Instruction(Opcode.FSTORE, srcs=(_reg(address), _reg(value)),
                                       imm=offset))

    # -- allocation / deallocation -------------------------------------------------------
    def malloc(self, dest: RegLike, size: int) -> "FunctionBuilder":
        """``dest = malloc(size)`` through the instrumented runtime."""
        self._function.append(Operation(kind=OpKind.MALLOC, dest=_reg(dest), size=size))
        return self

    def free(self, pointer: RegLike) -> "FunctionBuilder":
        """``free(pointer)`` through the instrumented runtime."""
        self._function.append(Operation(kind=OpKind.FREE, src=_reg(pointer)))
        return self

    def stack_alloc(self, dest: RegLike, size: int) -> "FunctionBuilder":
        """``dest = &local`` — address of ``size`` bytes in the current frame."""
        self._function.append(Operation(kind=OpKind.STACK_ALLOC, dest=_reg(dest), size=size))
        self._function.frame_bytes += size
        return self

    def global_addr(self, dest: RegLike, offset: int = 0) -> "FunctionBuilder":
        """``dest = &global`` — PC-relative global address (global id, §7)."""
        self._function.append(Operation(kind=OpKind.GLOBAL_ADDR, dest=_reg(dest),
                                        offset=offset))
        return self

    # -- control ----------------------------------------------------------------------------
    def call(self, callee: str) -> "FunctionBuilder":
        """Call another function (triggers the Figure 3c identifier push)."""
        self._function.append(Operation(kind=OpKind.CALL, callee=callee))
        return self

    def ret(self) -> "FunctionBuilder":
        """Return from the current function (Figure 3d identifier pop)."""
        self._function.append(Operation(kind=OpKind.RETURN))
        return self

    def nop(self) -> "FunctionBuilder":
        return self._macro(Instruction(Opcode.NOP))

    # -- plumbing -------------------------------------------------------------------------------
    def _macro(self, instruction: Instruction) -> "FunctionBuilder":
        self._function.append(Operation(kind=OpKind.MACRO, instruction=instruction))
        return self

    def build(self) -> Function:
        return self._function


class ProgramBuilder:
    """Builds a whole :class:`~repro.program.ir.Program`."""

    def __init__(self, entry: str = "main"):
        self._program = Program(entry=entry)

    @contextmanager
    def function(self, name: str) -> Iterator[FunctionBuilder]:
        """Context manager adding a function when the block exits."""
        builder = FunctionBuilder(name)
        yield builder
        self._program.add_function(builder.build())

    def add_function(self, function: Function) -> "ProgramBuilder":
        self._program.add_function(function)
        return self

    def build(self) -> Program:
        self._program.validate()
        return self._program
