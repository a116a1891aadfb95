"""Instruction classes of the mid-level IR.

Every instruction exposes:

- ``dst`` / ``defined()`` — the register it writes (or ``None``; the
  classes that never write one say so with a class attribute, so a
  pass reads ``instruction.dst`` whatever the instruction is),
- ``uses()`` — the values it reads,
- ``replace_uses(mapping)`` — substitute used values (for CSE etc.).

Terminators additionally expose ``successors()``.

The set mirrors the LLVM subset the paper's transformation manipulates:
element-wise arithmetic, comparisons, selects, conversions, intrinsic
calls (transcendentals with vector built-ins), memory operations that
are *not* vectorizable and stay per-lane, ``insertelement`` /
``extractelement`` for packing at scalar/vector boundaries, warp-wide
reductions for branch-condition sums, and context-object accesses
through which threads observe their identity (§4, Fig. 3/5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ptx.types import AddressSpace, DataType
from .values import Constant, VirtualRegister

# ---------------------------------------------------------------------------
# Resume statuses (§4.1: "three classes of kernel yields")
# ---------------------------------------------------------------------------


class ResumeStatus:
    """Why a warp returned to the execution manager."""

    RUNNING = 0
    THREAD_BRANCH = 1  # divergent (or any) branch yield
    THREAD_BARRIER = 2  # CTA-wide barrier
    THREAD_EXIT = 3  # thread termination

    NAMES = {
        0: "running",
        1: "branch",
        2: "barrier",
        3: "exit",
    }


# ---------------------------------------------------------------------------
# Base
# ---------------------------------------------------------------------------


class IRInstruction:
    """Base class. Subclasses are small mutable records."""

    __slots__ = ()

    is_terminator = False

    def defined(self) -> Optional[VirtualRegister]:
        return self.dst

    def uses(self) -> List[object]:
        return []

    def replace_uses(self, mapping: Dict[object, object]) -> None:
        """Substitute used values according to ``mapping``."""


def _subst(value, mapping):
    return mapping.get(value, value)


# ---------------------------------------------------------------------------
# Arithmetic / logic
# ---------------------------------------------------------------------------


@dataclass
class BinaryOp(IRInstruction):
    """Element-wise binary operator; vectorizable."""

    op: str  # add sub mul mulhi div rem min max and or xor shl lshr ashr
    dtype: DataType
    dst: VirtualRegister
    a: object
    b: object

    OPS = (
        "add",
        "sub",
        "mul",
        "mulhi",
        "div",
        "rem",
        "min",
        "max",
        "and",
        "or",
        "xor",
        "shl",
        "lshr",
        "ashr",
    )

    def uses(self):
        return [self.a, self.b]

    def replace_uses(self, mapping):
        self.a = _subst(self.a, mapping)
        self.b = _subst(self.b, mapping)

    def __str__(self):
        return f"{self.dst} = {self.op}.{self.dtype.value} {self.a}, {self.b}"


@dataclass
class UnaryOp(IRInstruction):
    """Element-wise unary operator; vectorizable."""

    op: str  # neg abs not cnot
    dtype: DataType
    dst: VirtualRegister
    a: object

    def uses(self):
        return [self.a]

    def replace_uses(self, mapping):
        self.a = _subst(self.a, mapping)

    def __str__(self):
        return f"{self.dst} = {self.op}.{self.dtype.value} {self.a}"


@dataclass
class FusedMultiplyAdd(IRInstruction):
    """a * b + c, element-wise; vectorizable."""

    dtype: DataType
    dst: VirtualRegister
    a: object
    b: object
    c: object

    def uses(self):
        return [self.a, self.b, self.c]

    def replace_uses(self, mapping):
        self.a = _subst(self.a, mapping)
        self.b = _subst(self.b, mapping)
        self.c = _subst(self.c, mapping)

    def __str__(self):
        return (
            f"{self.dst} = fma.{self.dtype.value} "
            f"{self.a}, {self.b}, {self.c}"
        )


@dataclass
class Compare(IRInstruction):
    """Element-wise comparison producing a predicate; vectorizable."""

    op: str  # eq ne lt le gt ge (+ unordered variants)
    dtype: DataType  # operand type
    dst: VirtualRegister  # predicate register
    a: object
    b: object

    def uses(self):
        return [self.a, self.b]

    def replace_uses(self, mapping):
        self.a = _subst(self.a, mapping)
        self.b = _subst(self.b, mapping)

    def __str__(self):
        return (
            f"{self.dst} = cmp.{self.op}.{self.dtype.value} "
            f"{self.a}, {self.b}"
        )


@dataclass
class Select(IRInstruction):
    """Conditional per-lane select — the vector unit's only masking
    primitive (§2: "conditional select operators may choose between two
    values in each lane")."""

    dtype: DataType
    dst: VirtualRegister
    a: object
    b: object
    predicate: object

    def uses(self):
        return [self.a, self.b, self.predicate]

    def replace_uses(self, mapping):
        self.a = _subst(self.a, mapping)
        self.b = _subst(self.b, mapping)
        self.predicate = _subst(self.predicate, mapping)

    def __str__(self):
        return (
            f"{self.dst} = select.{self.dtype.value} {self.predicate} ? "
            f"{self.a} : {self.b}"
        )


@dataclass
class Convert(IRInstruction):
    """Type conversion; vectorizable."""

    dst_type: DataType
    src_type: DataType
    dst: VirtualRegister
    src: object
    rounding: Optional[str] = None

    def uses(self):
        return [self.src]

    def replace_uses(self, mapping):
        self.src = _subst(self.src, mapping)

    def __str__(self):
        mode = f".{self.rounding}" if self.rounding else ""
        return (
            f"{self.dst} = convert.{self.dst_type.value}."
            f"{self.src_type.value}{mode} {self.src}"
        )


@dataclass
class Intrinsic(IRInstruction):
    """Call to a built-in math function with vector support in both the
    IR and the machine (§4: "calls to transcendental functions for which
    both LLVM and the compilation target ... have built-in support")."""

    name: str  # sqrt rsqrt rcp sin cos ex2 lg2
    dtype: DataType
    dst: VirtualRegister
    args: List[object] = field(default_factory=list)

    NAMES = ("sqrt", "rsqrt", "rcp", "sin", "cos", "ex2", "lg2")

    def uses(self):
        return list(self.args)

    def replace_uses(self, mapping):
        self.args = [_subst(a, mapping) for a in self.args]

    def __str__(self):
        args = ", ".join(str(a) for a in self.args)
        return f"{self.dst} = call.{self.name}.{self.dtype.value}({args})"


# ---------------------------------------------------------------------------
# Memory (non-vectorizable: replicated per lane — §4 "Non-vectorizable
# Instructions")
# ---------------------------------------------------------------------------


@dataclass
class Load(IRInstruction):
    """Scalar load. ``lane`` selects whose thread-private segments
    (local) / CTA segments (shared) the address resolves against."""

    dtype: DataType
    dst: VirtualRegister
    space: AddressSpace
    base: object  # register or Constant address / segment offset
    offset: int = 0
    lane: int = 0
    volatile: bool = False

    def uses(self):
        return [self.base]

    def replace_uses(self, mapping):
        self.base = _subst(self.base, mapping)

    def __str__(self):
        return (
            f"{self.dst} = load.{self.space.value}.{self.dtype.value} "
            f"[{self.base}+{self.offset}] lane={self.lane}"
        )


@dataclass
class Store(IRInstruction):
    """Scalar store; see :class:`Load` for lane semantics."""

    dtype: DataType
    space: AddressSpace
    base: object
    value: object
    offset: int = 0
    lane: int = 0
    volatile: bool = False

    dst = None

    def uses(self):
        return [self.base, self.value]

    def replace_uses(self, mapping):
        self.base = _subst(self.base, mapping)
        self.value = _subst(self.value, mapping)

    def __str__(self):
        return (
            f"store.{self.space.value}.{self.dtype.value} "
            f"[{self.base}+{self.offset}], {self.value} lane={self.lane}"
        )


@dataclass
class VectorLoad(IRInstruction):
    """Contiguous vector load: lane i reads ``base + offset + i*size``.

    Emitted only when affine analysis proves the per-lane addresses
    contiguous (the paper's §4 future-work optimization: "arbitrary
    loads may be replaced with vector loads"). ``base`` is the lane-0
    address; the machine services all lanes with one access.
    """

    dtype: DataType
    dst: VirtualRegister  # vector register
    space: AddressSpace
    base: object  # scalar lane-0 address value
    offset: int = 0
    lane: int = 0  # segment resolution lane (static warps: lane 0)

    def uses(self):
        return [self.base]

    def replace_uses(self, mapping):
        self.base = _subst(self.base, mapping)

    def __str__(self):
        return (
            f"{self.dst} = vload.{self.space.value}.{self.dtype.value} "
            f"[{self.base}+{self.offset}]"
        )


@dataclass
class VectorStore(IRInstruction):
    """Contiguous vector store; see :class:`VectorLoad`."""

    dtype: DataType
    space: AddressSpace
    base: object
    value: object  # vector register (or scalar broadcast)
    offset: int = 0
    lane: int = 0

    dst = None

    def uses(self):
        return [self.base, self.value]

    def replace_uses(self, mapping):
        self.base = _subst(self.base, mapping)
        self.value = _subst(self.value, mapping)

    def __str__(self):
        return (
            f"vstore.{self.space.value}.{self.dtype.value} "
            f"[{self.base}+{self.offset}], {self.value}"
        )


@dataclass
class AtomicRMW(IRInstruction):
    """Atomic read-modify-write; serialized per lane by the machine."""

    op: str  # add min max exch and or xor cas inc dec
    dtype: DataType
    dst: Optional[VirtualRegister]
    space: AddressSpace
    base: object
    value: object
    compare: object = None  # for cas
    offset: int = 0
    lane: int = 0

    def uses(self):
        used = [self.base, self.value]
        if self.compare is not None:
            used.append(self.compare)
        return used

    def replace_uses(self, mapping):
        self.base = _subst(self.base, mapping)
        self.value = _subst(self.value, mapping)
        if self.compare is not None:
            self.compare = _subst(self.compare, mapping)

    def __str__(self):
        dst = f"{self.dst} = " if self.dst is not None else ""
        return (
            f"{dst}atomic.{self.op}.{self.space.value}.{self.dtype.value} "
            f"[{self.base}+{self.offset}], {self.value} lane={self.lane}"
        )


# ---------------------------------------------------------------------------
# Thread context access (§4: "Thread-local and CTA-local data members are
# accessed via a context object identifying the executing thread")
# ---------------------------------------------------------------------------

#: Context fields a kernel may read.
CONTEXT_FIELDS = (
    "tid.x",
    "tid.y",
    "tid.z",
    "ntid.x",
    "ntid.y",
    "ntid.z",
    "ctaid.x",
    "ctaid.y",
    "ctaid.z",
    "nctaid.x",
    "nctaid.y",
    "nctaid.z",
    "laneid",
    "warpid",
    "clock",
)


@dataclass
class ContextRead(IRInstruction):
    """Read a field of lane ``lane``'s thread context object."""

    field_name: str
    dtype: DataType
    dst: VirtualRegister
    lane: int = 0

    def __str__(self):
        return (
            f"{self.dst} = ctx.{self.field_name} lane={self.lane}"
        )


@dataclass
class ContextWrite(IRInstruction):
    """Write a field of lane ``lane``'s context (resume point, §4.1)."""

    field_name: str  # resume_point
    value: object
    lane: int = 0

    dst = None

    def uses(self):
        return [self.value]

    def replace_uses(self, mapping):
        self.value = _subst(self.value, mapping)

    def __str__(self):
        return f"ctx.{self.field_name} lane={self.lane} = {self.value}"


# ---------------------------------------------------------------------------
# Vector packing (Fig. 3: insertelement / extractelement)
# ---------------------------------------------------------------------------


@dataclass
class InsertElement(IRInstruction):
    """dst = vector ``src`` with lane ``index`` replaced by ``scalar``.
    ``src`` may be ``None`` for a fresh (undef) vector."""

    dst: VirtualRegister
    src: Optional[object]
    scalar: object
    index: int

    def uses(self):
        used = [self.scalar]
        if self.src is not None:
            used.append(self.src)
        return used

    def replace_uses(self, mapping):
        self.scalar = _subst(self.scalar, mapping)
        if self.src is not None:
            self.src = _subst(self.src, mapping)

    def __str__(self):
        src = self.src if self.src is not None else "undef"
        return (
            f"{self.dst} = insertelement {src}, {self.scalar}, {self.index}"
        )


@dataclass
class ExtractElement(IRInstruction):
    """dst = lane ``index`` of vector ``src``."""

    dst: VirtualRegister
    src: object
    index: int

    def uses(self):
        return [self.src]

    def replace_uses(self, mapping):
        self.src = _subst(self.src, mapping)

    def __str__(self):
        return f"{self.dst} = extractelement {self.src}, {self.index}"


@dataclass
class Reduce(IRInstruction):
    """Horizontal reduction over a vector register (used for the branch
    predicate sums of Algorithm 2 and for votes)."""

    op: str  # add any all ballot
    dst: VirtualRegister
    src: object

    def uses(self):
        return [self.src]

    def replace_uses(self, mapping):
        self.src = _subst(self.src, mapping)

    def __str__(self):
        return f"{self.dst} = reduce.{self.op} {self.src}"


@dataclass
class Broadcast(IRInstruction):
    """dst = vector with every lane equal to scalar ``src`` (splat)."""

    dst: VirtualRegister
    src: object

    def uses(self):
        return [self.src]

    def replace_uses(self, mapping):
        self.src = _subst(self.src, mapping)

    def __str__(self):
        return f"{self.dst} = broadcast {self.src}"


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


class Terminator(IRInstruction):
    __slots__ = ()

    is_terminator = True
    dst = None

    def successors(self) -> List[str]:
        return []


@dataclass
class Branch(Terminator):
    """Unconditional jump."""

    target: str

    def successors(self):
        return [self.target]

    def __str__(self):
        return f"br {self.target}"


@dataclass
class CondBranch(Terminator):
    """Two-way conditional branch (scalar IR only; Algorithm 2 replaces
    it with predicate-sum + Switch in vectorized functions)."""

    predicate: object
    taken: str
    fallthrough: str

    def uses(self):
        return [self.predicate]

    def replace_uses(self, mapping):
        self.predicate = _subst(self.predicate, mapping)

    def successors(self):
        return [self.taken, self.fallthrough]

    def __str__(self):
        return f"br {self.predicate}, {self.taken}, {self.fallthrough}"


@dataclass
class Switch(Terminator):
    """Multi-way branch on an integer value (scheduler block and
    divergence checks)."""

    value: object
    cases: Dict[int, str]
    default: str

    def uses(self):
        return [self.value]

    def replace_uses(self, mapping):
        self.value = _subst(self.value, mapping)

    def successors(self):
        seen = []
        for target in list(self.cases.values()) + [self.default]:
            if target not in seen:
                seen.append(target)
        return seen

    def __str__(self):
        cases = ", ".join(f"{k}->{v}" for k, v in sorted(self.cases.items()))
        return f"switch {self.value} [{cases}] default->{self.default}"


@dataclass
class BarrierTerm(Terminator):
    """CTA-wide barrier; the frontend splits blocks so barriers always
    terminate one. The vectorizer rewrites it into an exit handler with
    ``THREAD_BARRIER`` status."""

    successor: str

    def successors(self):
        return [self.successor]

    def __str__(self):
        return f"barrier -> {self.successor}"


@dataclass
class Exit(Terminator):
    """Thread termination (scalar IR)."""

    def __str__(self):
        return "exit"


@dataclass
class Yield(Terminator):
    """Return control to the execution manager with a resume status
    (the paper's compiler-inserted kernel exit point)."""

    status: int  # ResumeStatus value

    def __str__(self):
        return f"yield {ResumeStatus.NAMES.get(self.status, self.status)}"


# ---------------------------------------------------------------------------
# Classification used by the vectorizer (Algorithm 1's "is vectorizable")
# ---------------------------------------------------------------------------

VECTORIZABLE = (
    BinaryOp,
    UnaryOp,
    FusedMultiplyAdd,
    Compare,
    Select,
    Convert,
    Intrinsic,
)

REPLICATED = (Load, Store, AtomicRMW, ContextRead, ContextWrite)

VECTOR_MEMORY = (VectorLoad, VectorStore)
