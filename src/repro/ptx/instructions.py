"""Instruction set of the PTX dialect.

The dialect covers the subset of PTX 1.3/2.x that the CUDA SDK 2.2 /
Parboil style workloads need: integer and floating-point arithmetic,
loads/stores to explicit state spaces, comparison/select/predication,
branches, CTA-wide barriers, warp votes, atomics and the transcendental
instructions that the paper vectorizes via built-in vector intrinsics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from .operands import RegisterOperand
from .types import AddressSpace, DataType


class Opcode(enum.Enum):
    """PTX dialect opcodes."""

    # Data movement
    mov = "mov"
    ld = "ld"
    st = "st"
    cvt = "cvt"
    cvta = "cvta"

    # Integer / float arithmetic
    add = "add"
    sub = "sub"
    mul = "mul"
    mad = "mad"
    fma = "fma"
    div = "div"
    rem = "rem"
    abs = "abs"
    neg = "neg"
    min = "min"
    max = "max"

    # Bitwise / shift
    and_ = "and"
    or_ = "or"
    xor = "xor"
    not_ = "not"
    cnot = "cnot"
    shl = "shl"
    shr = "shr"

    # Comparison / select
    setp = "setp"
    set = "set"
    selp = "selp"
    slct = "slct"

    # Transcendentals (".approx" forms in real PTX)
    rcp = "rcp"
    sqrt = "sqrt"
    rsqrt = "rsqrt"
    sin = "sin"
    cos = "cos"
    lg2 = "lg2"
    ex2 = "ex2"

    # Control flow
    bra = "bra"
    exit = "exit"
    ret = "ret"

    # Synchronization and communication
    bar = "bar"
    membar = "membar"
    atom = "atom"
    red = "red"
    vote = "vote"

    def __str__(self):
        return self.value


class CompareOp(enum.Enum):
    """Comparison operators for ``setp``/``set``."""

    eq = "eq"
    ne = "ne"
    lt = "lt"
    le = "le"
    gt = "gt"
    ge = "ge"
    # Unordered float comparisons
    ltu = "ltu"
    leu = "leu"
    gtu = "gtu"
    geu = "geu"
    num = "num"
    nan = "nan"

    def __str__(self):
        return self.value


class MulMode(enum.Enum):
    """Result-half selector for integer ``mul``/``mad``."""

    lo = "lo"
    hi = "hi"
    wide = "wide"

    def __str__(self):
        return self.value


class VoteMode(enum.Enum):
    """Warp-wide vote reductions."""

    all = "all"
    any = "any"
    uni = "uni"
    ballot = "ballot"

    def __str__(self):
        return self.value


class AtomicOp(enum.Enum):
    """Atomic read-modify-write operators for ``atom``/``red``."""

    add = "add"
    min = "min"
    max = "max"
    exch = "exch"
    cas = "cas"
    and_ = "and"
    or_ = "or"
    xor = "xor"
    inc = "inc"
    dec = "dec"

    def __str__(self):
        if self is AtomicOp.and_:
            return "and"
        if self is AtomicOp.or_:
            return "or"
        return self.value


#: Opcodes that terminate a basic block.
TERMINATORS = frozenset({Opcode.bra, Opcode.exit, Opcode.ret})


@dataclass
class PTXInstruction:
    """One PTX dialect instruction.

    Attributes
    ----------
    opcode:
        The operation.
    dtype:
        Primary type suffix (``add.f32`` -> ``f32``).
    operands:
        Destination-first operand list, matching PTX assembly order.
    guard:
        Optional predicate guard (``@%p1`` / ``@!%p1``).
    space:
        Address space for memory operations.
    compare:
        Comparison operator for ``setp``/``set``.
    mul_mode:
        ``.lo``/``.hi``/``.wide`` for integer multiply forms.
    atomic_op:
        The RMW operator for ``atom``/``red``.
    vote_mode:
        Vote reduction for ``vote``.
    source_type:
        Secondary type suffix, e.g. the source type of ``cvt.u64.u32``
        or the operand type of ``set.gt.u32.f32``.
    rounding:
        Rounding modifier (``rn``, ``rz``, ``rm``, ``rp``, ``rni`` ...)
        for ``cvt`` and float arithmetic; purely informational for most
        integer ops.
    ftz / saturate:
        ``.ftz`` (parsed; subnormals are not flushed) and ``.sat``
        (the validator admits it only where the conversion saturates
        already: ``cvt`` from float to integer).
    approx / full:
        Precision modifiers on transcendentals and ``div``.
    vector_width:
        Element count for vector memory ops (``ld.global.v2.f32``).
    line:
        Source line for diagnostics.
    """

    opcode: Opcode
    dtype: Optional[DataType] = None
    operands: List[object] = field(default_factory=list)
    guard: Optional[RegisterOperand] = None
    space: Optional[AddressSpace] = None
    compare: Optional[CompareOp] = None
    mul_mode: Optional[MulMode] = None
    atomic_op: Optional[AtomicOp] = None
    vote_mode: Optional[VoteMode] = None
    source_type: Optional[DataType] = None
    rounding: Optional[str] = None
    ftz: bool = False
    saturate: bool = False
    approx: bool = False
    full: bool = False
    vector_width: int = 1
    line: Optional[int] = None

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    def modifier_string(self) -> str:
        """All dot-modifiers between the opcode and the operands."""
        parts = []
        if self.atomic_op is not None:
            if self.space is not None:
                parts.append(str(self.space))
            parts.append(f".{self.atomic_op}")
        else:
            if self.vote_mode is not None:
                parts.append(f".{self.vote_mode}")
            if self.space is not None:
                parts.append(str(self.space))
        if self.compare is not None:
            parts.append(f".{self.compare}")
        if self.mul_mode is not None:
            parts.append(f".{self.mul_mode}")
        if self.rounding is not None:
            parts.append(f".{self.rounding}")
        if self.ftz:
            parts.append(".ftz")
        if self.saturate:
            parts.append(".sat")
        if self.approx:
            parts.append(".approx")
        if self.full:
            parts.append(".full")
        if self.vector_width > 1:
            parts.append(f".v{self.vector_width}")
        if self.dtype is not None:
            parts.append(str(self.dtype))
        if self.source_type is not None:
            parts.append(str(self.source_type))
        return "".join(parts)

    def __str__(self):
        guard = ""
        if self.guard is not None:
            bang = "!" if self.guard.negated else ""
            guard = f"@{bang}%{self.guard.name} "
        ops = ", ".join(str(op) for op in self.operands)
        mods = self.modifier_string()
        if self.opcode is Opcode.bar:
            return f"{guard}bar.sync {ops};" if ops else f"{guard}bar.sync;"
        text = f"{guard}{self.opcode}{mods}"
        if ops:
            text += f" {ops}"
        return text + ";"


@dataclass
class Label:
    """A branch target; appears interleaved with instructions in a
    kernel body."""

    name: str
    line: Optional[int] = None

    def __str__(self):
        return f"{self.name}:"
