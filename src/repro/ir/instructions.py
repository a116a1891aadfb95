"""Instruction classes of the mid-level IR.

Every instruction exposes:

- ``dst`` — the register it writes (or ``None``; the classes that
  never write one say so with a class attribute, so a pass reads
  ``instruction.dst`` whatever the instruction is),
- ``uses()`` — the values it reads,
- ``rebuilt(dst, operands)`` — a copy onto another destination and
  other operands (how Algorithm 1 promotes an instruction, how
  melding renames one),
- ``signature()`` — what two instructions must share to be the same
  computation on different registers (CSE, melding's alignment).

The last three are derived from one declaration per class, its
``OPERANDS``.

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

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from ..ptx.types import AddressSpace, DataType
from .values import VirtualRegister

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
    """Base class. Subclasses are small mutable records, each declared
    once: its dataclass fields, and in ``OPERANDS`` which of them hold
    the values it reads. :func:`_instruction` prints the three methods
    below from that declaration; no pass restates it."""

    __slots__ = ()

    is_terminator = False
    #: Yield machinery (Fig. 9's overhead bucket), set by the vectorizer.
    overhead = False

    #: Names of the fields that hold read values, in ``uses()`` order.
    #: A field typed ``List[...]`` (last, if any) contributes all its
    #: elements; one typed ``Optional[...]`` (last, if any) is absent
    #: from ``uses()`` while it is ``None``.
    OPERANDS: Tuple[str, ...] = ()

    def uses(self) -> List[object]:
        """The values read, as a new list."""
        raise NotImplementedError

    def rebuilt(self, dst, operands) -> "IRInstruction":
        """A copy writing ``dst`` (ignored by a class that writes
        nothing) and reading ``operands``, given in ``uses()`` order;
        every other field is this instruction's."""
        raise NotImplementedError

    def signature(self) -> tuple:
        """Hashable identity of everything but the registers: the
        class, each field that is neither ``dst`` nor an operand, the
        number of list operands and which optional parts are present.
        Two instructions with equal signatures differ only in where
        they read and write."""
        raise NotImplementedError

    #: ``moves(warp_size)`` of a whole-register spill or restore: the
    #: (local accesses, shuffles) it stands for; None for the others.
    moves = None


def _instruction(cls):
    """``@dataclass``, then ``uses``/``rebuilt``/``signature`` printed
    for the class from its fields and ``OPERANDS`` — straight-line
    code, so a call costs what a hand-written method did."""
    cls = dataclass(cls)
    types = {field.name: field.type for field in fields(cls)}
    operands = cls.OPERANDS
    assert set(operands) <= set(types) and "dst" not in operands, cls
    assert not {"self", "operands"} & set(types), cls
    last = types[operands[-1]] if operands else ""
    listed = operands[-1:] if last.startswith("List[") else ()
    optional = operands[-1:] if last.startswith("Optional[") else ()
    fixed = operands[: len(operands) - len(listed + optional)]
    assert not any(
        types[name].startswith(("List[", "Optional[")) for name in fixed
    ), cls

    read = ", ".join(
        [f"self.{name}" for name in fixed]
        + [f"*self.{name}" for name in listed]
    )
    unpack = "".join(
        [f"{name}, " for name in fixed] + [f"*{name}, " for name in listed]
    )
    lines = ["def uses(self):"]
    if optional:
        (name,) = optional
        lines += [
            f"    used = [{read}]",
            f"    if self.{name} is not None:",
            f"        used.append(self.{name})",
            "    return used",
            "def rebuilt(self, dst, operands):",
            f"    if self.{name} is None:",
            f"        {unpack}{name} = *operands, None",
            "    else:",
            f"        {unpack}{name} = operands",
        ]
    else:
        lines += [f"    return [{read}]", "def rebuilt(self, dst, operands):"]
        if operands:
            lines.append(f"    {unpack}= operands")
    copied, identity = [], [cls.__name__]
    for name, kind in types.items():
        if name == "dst" or name in operands:
            copied.append(name)
        elif kind.startswith("Dict["):
            copied.append(f"dict(self.{name})")
            identity.append(f"tuple(sorted(self.{name}.items()))")
        else:
            copied.append(f"self.{name}")
            # A DataType hashes through Python, its suffix does not.
            identity.append(
                f"self.{name}.suffix" if kind == "DataType" else copied[-1]
            )
    identity += [f"len(self.{name})" for name in listed]
    identity += [
        f"self.{name} is None"
        for name in optional + ("dst",)
        if types.get(name, "").startswith("Optional[")
    ]
    lines += [
        f"    return {cls.__name__}({', '.join(copied)})",
        "def signature(self):",
        f"    return ({', '.join(identity)},)",
    ]
    namespace = {cls.__name__: cls}
    exec("\n".join(lines), namespace)
    for method in ("uses", "rebuilt", "signature"):
        setattr(cls, method, namespace[method])
    return cls


# ---------------------------------------------------------------------------
# Arithmetic / logic
# ---------------------------------------------------------------------------


@_instruction
class BinaryOp(IRInstruction):
    """Element-wise binary operator; vectorizable."""

    op: str  # add sub mul mulhi div rem min max and or xor shl lshr ashr
    dtype: DataType
    dst: VirtualRegister
    a: object
    b: object

    OPERANDS = ("a", "b")

    def __str__(self):
        return f"{self.dst} = {self.op}.{self.dtype.value} {self.a}, {self.b}"


@_instruction
class UnaryOp(IRInstruction):
    """Element-wise unary operator; vectorizable."""

    op: str  # neg abs not cnot
    dtype: DataType
    dst: VirtualRegister
    a: object

    OPERANDS = ("a",)

    def __str__(self):
        return f"{self.dst} = {self.op}.{self.dtype.value} {self.a}"


@_instruction
class FusedMultiplyAdd(IRInstruction):
    """a * b + c, element-wise; vectorizable."""

    dtype: DataType
    dst: VirtualRegister
    a: object
    b: object
    c: object

    OPERANDS = ("a", "b", "c")

    def __str__(self):
        return (
            f"{self.dst} = fma.{self.dtype.value} "
            f"{self.a}, {self.b}, {self.c}"
        )


@_instruction
class Compare(IRInstruction):
    """Element-wise comparison producing a predicate; vectorizable."""

    op: str  # eq ne lt le gt ge (+ unordered variants)
    dtype: DataType  # operand type
    dst: VirtualRegister  # predicate register
    a: object
    b: object

    OPERANDS = ("a", "b")

    def __str__(self):
        return (
            f"{self.dst} = cmp.{self.op}.{self.dtype.value} "
            f"{self.a}, {self.b}"
        )


@_instruction
class Select(IRInstruction):
    """Conditional per-lane select — the vector unit's only masking
    primitive (§2: "conditional select operators may choose between two
    values in each lane")."""

    dtype: DataType
    dst: VirtualRegister
    a: object
    b: object
    predicate: object

    OPERANDS = ("a", "b", "predicate")

    def __str__(self):
        return (
            f"{self.dst} = select.{self.dtype.value} {self.predicate} ? "
            f"{self.a} : {self.b}"
        )


@_instruction
class Convert(IRInstruction):
    """Type conversion; vectorizable."""

    dst_type: DataType
    src_type: DataType
    dst: VirtualRegister
    src: object
    rounding: Optional[str] = None

    OPERANDS = ("src",)

    def __str__(self):
        mode = f".{self.rounding}" if self.rounding else ""
        return (
            f"{self.dst} = convert.{self.dst_type.value}."
            f"{self.src_type.value}{mode} {self.src}"
        )


@_instruction
class Intrinsic(IRInstruction):
    """Call to a built-in math function with vector support in both the
    IR and the machine (§4: "calls to transcendental functions for which
    both LLVM and the compilation target ... have built-in support")."""

    name: str  # sqrt rsqrt rcp sin cos ex2 lg2
    dtype: DataType
    dst: VirtualRegister
    args: List[object] = field(default_factory=list)

    OPERANDS = ("args",)

    def __str__(self):
        args = ", ".join(str(a) for a in self.args)
        return f"{self.dst} = call.{self.name}.{self.dtype.value}({args})"


# ---------------------------------------------------------------------------
# Memory (non-vectorizable: replicated per lane — §4 "Non-vectorizable
# Instructions")
# ---------------------------------------------------------------------------


@_instruction
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

    OPERANDS = ("base",)

    def __str__(self):
        return (
            f"{self.dst} = load.{self.space.value}.{self.dtype.value} "
            f"[{self.base}+{self.offset}] lane={self.lane}"
        )


@_instruction
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

    OPERANDS = ("base", "value")

    def __str__(self):
        return (
            f"store.{self.space.value}.{self.dtype.value} "
            f"[{self.base}+{self.offset}], {self.value} lane={self.lane}"
        )


@_instruction
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

    OPERANDS = ("base",)

    def __str__(self):
        return (
            f"{self.dst} = vload.{self.space.value}.{self.dtype.value} "
            f"[{self.base}+{self.offset}]"
        )


@_instruction
class VectorStore(IRInstruction):
    """Contiguous vector store; see :class:`VectorLoad`."""

    dtype: DataType
    space: AddressSpace
    base: object
    value: object  # vector register (or scalar broadcast)
    offset: int = 0
    lane: int = 0

    dst = None

    OPERANDS = ("base", "value")

    def __str__(self):
        return (
            f"vstore.{self.space.value}.{self.dtype.value} "
            f"[{self.base}+{self.offset}], {self.value}"
        )


@_instruction
class AtomicRMW(IRInstruction):
    """Atomic read-modify-write; serialized per lane by the machine."""

    op: str  # add min max exch and or xor cas inc dec
    dtype: DataType
    dst: Optional[VirtualRegister]
    space: AddressSpace
    base: object
    value: object
    compare: Optional[object] = None  # for cas
    offset: int = 0
    lane: int = 0

    OPERANDS = ("base", "value", "compare")

    def __str__(self):
        dst = f"{self.dst} = " if self.dst is not None else ""
        return (
            f"{dst}atomic.{self.op}.{self.space.value}.{self.dtype.value} "
            f"[{self.base}+{self.offset}], {self.value} lane={self.lane}"
        )


# ---------------------------------------------------------------------------
# Whole-register moves of the yield handlers (Algorithms 3 and 4): each
# lane's value goes to or comes from its own thread's spill ``slot``, a
# constant offset into local memory.
# ---------------------------------------------------------------------------


@_instruction
class Restore(IRInstruction):
    """Lane i of ``dst`` is loaded from lane i's spill slot: ``w`` local
    loads and ``w`` insertelements, or one lane-0 load for a width-1
    register."""

    dtype: DataType
    dst: VirtualRegister
    slot: object

    OPERANDS = ("slot",)

    def moves(self, warp_size):
        width = self.dst.width
        return width, width if width > 1 else 0

    def lanes(self, warp_size) -> List[Load]:
        """The scalar loads it stands for, lane k's from its own slot."""
        return [
            Load(self.dtype, self.dst, AddressSpace.local, self.slot, lane=k)
            for k in range(self.dst.width)
        ]

    def __str__(self):
        return f"{self.dst} = restore.{self.dtype.value} [{self.slot}]"


@_instruction
class Spill(IRInstruction):
    """Lane i's slot gets lane i of ``values``: one vector register
    (``w`` extractelements and ``w`` local stores), one width-1 register
    (stored to every lane) or the ``w`` lane scalars the block holds."""

    dtype: DataType
    slot: object
    values: List[object] = field(default_factory=list)

    dst = None

    OPERANDS = ("slot", "values")

    def moves(self, warp_size):
        first, *rest = self.values
        return warp_size, 0 if rest or first.width == 1 else warp_size

    def lanes(self, warp_size) -> List[Store]:
        """The scalar stores it stands for, lane k's value (a vector's
        lane k) to its own slot."""
        values = self.values
        return [
            Store(self.dtype, AddressSpace.local, self.slot,
                  values[k % len(values)], lane=k)
            for k in range(warp_size)
        ]

    def __str__(self):
        values = ", ".join(str(value) for value in self.values)
        return f"spill.{self.dtype.value} [{self.slot}], {values}"


# ---------------------------------------------------------------------------
# Thread context access (§4: "Thread-local and CTA-local data members are
# accessed via a context object identifying the executing thread")
# ---------------------------------------------------------------------------


@_instruction
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


@_instruction
class ContextWrite(IRInstruction):
    """Write a field of lane ``lane``'s context (resume point, §4.1)."""

    field_name: str  # resume_point
    value: object
    lane: int = 0

    dst = None

    OPERANDS = ("value",)

    def __str__(self):
        return f"ctx.{self.field_name} lane={self.lane} = {self.value}"


# ---------------------------------------------------------------------------
# Vector packing (Fig. 3: insertelement / extractelement)
# ---------------------------------------------------------------------------


@_instruction
class InsertElement(IRInstruction):
    """dst = vector ``src`` with lane ``index`` replaced by ``scalar``.
    ``src`` may be ``None`` for a fresh (undef) vector."""

    dst: VirtualRegister
    src: Optional[object]
    scalar: object
    index: int

    OPERANDS = ("scalar", "src")

    def __str__(self):
        src = self.src if self.src is not None else "undef"
        return (
            f"{self.dst} = insertelement {src}, {self.scalar}, {self.index}"
        )


@_instruction
class ExtractElement(IRInstruction):
    """dst = lane ``index`` of vector ``src``."""

    dst: VirtualRegister
    src: object
    index: int

    OPERANDS = ("src",)

    def __str__(self):
        return f"{self.dst} = extractelement {self.src}, {self.index}"


@_instruction
class Reduce(IRInstruction):
    """Horizontal reduction over a vector register (used for the branch
    predicate sums of Algorithm 2 and for votes)."""

    op: str  # add any all ballot
    dst: VirtualRegister
    src: object

    OPERANDS = ("src",)

    def __str__(self):
        return f"{self.dst} = reduce.{self.op} {self.src}"


@_instruction
class Broadcast(IRInstruction):
    """dst = vector with every lane equal to scalar ``src`` (splat)."""

    dst: VirtualRegister
    src: object

    OPERANDS = ("src",)

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


@_instruction
class Branch(Terminator):
    """Unconditional jump."""

    target: str

    def successors(self):
        return [self.target]

    def __str__(self):
        return f"br {self.target}"


@_instruction
class CondBranch(Terminator):
    """Two-way conditional branch (scalar IR only; Algorithm 2 replaces
    it with predicate-sum + Switch in vectorized functions)."""

    predicate: object
    taken: str
    fallthrough: str

    OPERANDS = ("predicate",)

    def successors(self):
        return [self.taken, self.fallthrough]

    def __str__(self):
        return f"br {self.predicate}, {self.taken}, {self.fallthrough}"


@_instruction
class Switch(Terminator):
    """Multi-way branch on an integer value (scheduler block and
    divergence checks)."""

    value: object
    cases: Dict[int, str]
    default: str

    OPERANDS = ("value",)

    def successors(self):
        seen = []
        for target in list(self.cases.values()) + [self.default]:
            if target not in seen:
                seen.append(target)
        return seen

    def __str__(self):
        cases = ", ".join(f"{k}->{v}" for k, v in sorted(self.cases.items()))
        return f"switch {self.value} [{cases}] default->{self.default}"


@_instruction
class BarrierTerm(Terminator):
    """CTA-wide barrier; the frontend splits blocks so barriers always
    terminate one. The vectorizer rewrites it into an exit handler with
    ``THREAD_BARRIER`` status."""

    successor: str

    def successors(self):
        return [self.successor]

    def __str__(self):
        return f"barrier -> {self.successor}"


@_instruction
class Exit(Terminator):
    """Thread termination (scalar IR)."""

    def __str__(self):
        return "exit"


@_instruction
class Yield(Terminator):
    """Return control to the execution manager with a resume status
    (the paper's compiler-inserted kernel exit point)."""

    status: int  # ResumeStatus value

    def __str__(self):
        return f"yield {ResumeStatus.NAMES.get(self.status, self.status)}"


# ---------------------------------------------------------------------------
# Classification (Algorithm 1's "is vectorizable")
# ---------------------------------------------------------------------------

#: Element-wise and pure: the vectorizer promotes these to one
#: ``ws``-wide instruction; melding may execute them on a path that
#: did not ask for them (no side effects, no faults beyond the
#: machine's defined div-by-zero/NaN behaviour).
VECTORIZABLE = (
    BinaryOp,
    UnaryOp,
    FusedMultiplyAdd,
    Compare,
    Select,
    Convert,
    Intrinsic,
)
