"""Thread-invariance (uniformity) analysis.

Supports the thread-invariant expression elimination of §6.2. A scalar
register is *uniform* when every thread of the kernel that executes its
definition computes the same value — so a warp (formed under the
configured warp-formation policy) holds identical lanes for it and the
replicated instruction bundle can collapse to one scalar instruction.

The analysis is deliberately conservative and sound:

1. **Data variance** propagates from variant sources (thread indices,
   atomic results, votes, loads at variant addresses) through def-use
   chains to a fixed point.
2. **Path effects** are excluded by restricting uniform definitions to
   the *pre-divergence region*: blocks reachable from the entry without
   crossing a variant conditional branch. In that region all threads
   execute the identical block sequence (uniform branches send every
   thread the same way), so equal inputs imply equal values regardless
   of how warps are formed or re-formed.

Under **static warp formation** (consecutive ``tid.x`` within one CTA,
§6.2) the per-warp identity of ``ctaid.*``/``tid.y``/``tid.z`` makes
those context reads uniform as well, and ``tid.x`` becomes affine in
the lane index (handled by the vectorizer's replication rewrite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..ir.cfg import ControlFlowGraph
from ..ir.function import IRFunction
from ..ir.instructions import (
    AtomicRMW,
    BinaryOp,
    CondBranch,
    ContextRead,
    Convert,
    FusedMultiplyAdd,
    Load,
    Reduce,
    Store,
    UnaryOp,
)
from ..ir.values import Constant, VirtualRegister
from ..ptx.types import AddressSpace

#: Context fields equal for every thread in the grid.
GRID_UNIFORM_FIELDS = frozenset(
    {
        "ntid.x",
        "ntid.y",
        "ntid.z",
        "nctaid.x",
        "nctaid.y",
        "nctaid.z",
    }
)

#: Context fields additionally equal across a warp under static warp
#: formation (consecutive tid.x, same CTA / same y,z row).
STATIC_WARP_UNIFORM_FIELDS = GRID_UNIFORM_FIELDS | frozenset(
    {
        "ctaid.x",
        "ctaid.y",
        "ctaid.z",
        "tid.y",
        "tid.z",
    }
)


@dataclass
class UniformityInfo:
    """Result of the analysis."""

    #: Names of registers proven uniform (safe to keep scalar).
    uniform_registers: Set[str] = field(default_factory=set)
    #: Labels of blocks in the pre-divergence region.
    pre_divergence_blocks: Set[str] = field(default_factory=set)
    #: Conditional branches whose predicate is variant.
    variant_branch_blocks: Set[str] = field(default_factory=set)

    def is_uniform(self, value) -> bool:
        if isinstance(value, Constant):
            return True
        if isinstance(value, VirtualRegister):
            return value.name in self.uniform_registers
        return False


def analyze_uniformity(
    function: IRFunction, static_warps: bool = False
) -> UniformityInfo:
    """Compute uniform registers of a *scalar* IR function."""
    uniform_fields = (
        STATIC_WARP_UNIFORM_FIELDS if static_warps else GRID_UNIFORM_FIELDS
    )
    definitions: Dict[str, List[tuple]] = {}
    for block in function.ordered_blocks():
        for instruction in block.all_instructions():
            target = instruction.dst
            if target is not None:
                definitions.setdefault(target.name, []).append(
                    (block.label, instruction)
                )

    variant: Set[str] = set()

    def value_variant(value) -> bool:
        return isinstance(value, VirtualRegister) and value.name in variant

    def instruction_variant(instruction) -> bool:
        if isinstance(instruction, ContextRead):
            return instruction.field_name not in uniform_fields
        if isinstance(instruction, AtomicRMW):
            return True
        if isinstance(instruction, Reduce):
            # Warp votes are warp-uniform but not thread-invariant.
            return True
        if isinstance(instruction, Load):
            if instruction.space is AddressSpace.param:
                return value_variant(instruction.base)
            if instruction.space is AddressSpace.local:
                # Thread-private storage is inherently per-thread.
                return True
            return value_variant(instruction.base)
        return any(value_variant(v) for v in instruction.uses())

    changed = True
    while changed:
        changed = False
        for name, defs in definitions.items():
            if name in variant:
                continue
            if any(instruction_variant(inst) for _, inst in defs):
                variant.add(name)
                changed = True

    # Pre-divergence region: BFS from entry, do not expand past blocks
    # terminated by a variant conditional branch.
    variant_branch_blocks: Set[str] = set()
    for block in function.ordered_blocks():
        terminator = block.terminator
        if isinstance(terminator, CondBranch) and value_variant(
            terminator.predicate
        ):
            variant_branch_blocks.add(block.label)

    # A block is pre-divergence iff it is reachable from the entry and
    # *no* path from a variant branch reaches it (a loop from divergent
    # code back to early blocks taints them).
    cfg = ControlFlowGraph(function)
    tainted: Set[str] = set()
    frontier: List[str] = []
    for label in variant_branch_blocks:
        frontier.extend(cfg.successors.get(label, []))
    while frontier:
        label = frontier.pop()
        if label in tainted:
            continue
        tainted.add(label)
        frontier.extend(cfg.successors.get(label, []))
    pre_divergence = cfg.reachable() - tainted

    uniform: Set[str] = set()
    for name, defs in definitions.items():
        if name in variant:
            continue
        if all(label in pre_divergence for label, _ in defs):
            uniform.add(name)

    return UniformityInfo(
        uniform_registers=uniform,
        pre_divergence_blocks=pre_divergence,
        variant_branch_blocks=variant_branch_blocks,
    )


def count_thread_invariant_operands(function: IRFunction) -> tuple:
    """(uniform register count, total register count) — the statistic
    Collange et al. report (§6.2 cites ~15% thread-invariant operands).
    """
    info = analyze_uniformity(function, static_warps=True)
    total = len(function.registers())
    return len(info.uniform_registers), total





# ---------------------------------------------------------------------------
# Affine analysis (the paper's §4 future work: "we envision divergence
# analysis [11] and affine analysis [12] to identify opportunities in
# which multiple threads are guaranteed to access contiguous data")
# ---------------------------------------------------------------------------


def analyze_affine(
    function: IRFunction, uniformity: UniformityInfo
) -> Dict[str, int]:
    """Map register names to their per-thread stride in ``tid.x``.

    A register is *thread-affine with stride s* when every thread that
    defines it computes ``f(uniform state) + s * tid.x``. Under static
    warp formation (consecutive ``tid.x``), lane i of any warp then
    holds ``lane0 + i*s`` — so a memory access whose address has
    stride equal to the element size touches contiguous locations and
    can be serviced by one vector load/store.

    Soundness: facts are only derived for registers with a *single*
    static definition whose inputs are themselves affine/uniform, so
    the value is the same function of ``tid.x`` on every path that
    defines it. Uniform registers (stride 0) come from the uniformity
    analysis; constants are stride 0.
    """
    definitions: Dict[str, List[object]] = {}
    for block in function.ordered_blocks():
        for instruction in block.all_instructions():
            target = instruction.dst
            if target is not None:
                definitions.setdefault(target.name, []).append(
                    instruction
                )

    strides: Dict[str, int] = {
        name: 0 for name in uniformity.uniform_registers
    }

    def stride_of(value) -> Optional[int]:
        if isinstance(value, Constant):
            return 0
        if isinstance(value, VirtualRegister):
            return strides.get(value.name)
        return None

    def constant_value(value) -> Optional[int]:
        """Resolve integer constants through single-def movs and
        integer conversions (the translator lowers ``mul.wide x, 4``
        through a convert of the literal)."""
        seen = 0
        while seen < 8:
            if isinstance(value, Constant):
                if isinstance(value.value, bool):
                    return None
                if isinstance(value.value, int):
                    return value.value
                return None
            if not isinstance(value, VirtualRegister):
                return None
            defs = definitions.get(value.name)
            if defs is None or len(defs) != 1:
                return None
            definition = defs[0]
            if isinstance(definition, UnaryOp) and definition.op == "mov":
                value = definition.a
            elif isinstance(definition, Convert) and (
                definition.dst_type.is_integer
                and definition.src_type.is_integer
            ):
                value = definition.src
            else:
                return None
            seen += 1
        return None

    def derive(instruction) -> Optional[int]:
        if isinstance(instruction, ContextRead):
            if instruction.field_name == "tid.x":
                return 1
            if instruction.field_name in STATIC_WARP_UNIFORM_FIELDS:
                # Fixed per thread regardless of where the read sits.
                return 0
            return None
        if isinstance(instruction, Load):
            # Kernel parameters are immutable for the whole launch, so
            # a param load at a uniform address is stride 0 wherever it
            # appears.
            if (
                instruction.space is AddressSpace.param
                and stride_of(instruction.base) == 0
            ):
                return 0
            return None
        if isinstance(instruction, UnaryOp):
            if instruction.op == "mov":
                return stride_of(instruction.a)
            return None
        if isinstance(instruction, Convert):
            # Widening integer conversions preserve the stride (the
            # affine relation is exact in the wider type).
            if (
                instruction.dst_type.is_integer
                and instruction.src_type.is_integer
                and instruction.dst_type.size
                >= instruction.src_type.size
            ):
                return stride_of(instruction.src)
            return None
        if isinstance(instruction, BinaryOp):
            a = stride_of(instruction.a)
            b = stride_of(instruction.b)
            op = instruction.op
            if op == "add" and a is not None and b is not None:
                return a + b
            if op == "sub" and a is not None and b is not None:
                return a - b
            if op == "mul":
                b_value = constant_value(instruction.b)
                if a is not None and b_value is not None:
                    return a * b_value
                a_value = constant_value(instruction.a)
                if b is not None and a_value is not None:
                    return b * a_value
                if a == 0 and b == 0:
                    return 0
                return None
            if op == "shl" and a is not None:
                b_value = constant_value(instruction.b)
                if b_value is not None and 0 <= b_value < 64:
                    return a << b_value
                return None
            if a == 0 and b == 0:
                return 0
            return None
        if isinstance(instruction, FusedMultiplyAdd):
            a = stride_of(instruction.a)
            b = stride_of(instruction.b)
            c = stride_of(instruction.c)
            if c is None:
                return None
            b_value = constant_value(instruction.b)
            if a is not None and b_value is not None:
                return a * b_value + c
            a_value = constant_value(instruction.a)
            if b is not None and a_value is not None:
                return b * a_value + c
            if a == 0 and b == 0:
                return c
            return None
        return None

    changed = True
    while changed:
        changed = False
        for name, defs in definitions.items():
            if name in strides or len(defs) != 1:
                continue
            stride = derive(defs[0])
            if stride is not None:
                strides[name] = stride
                changed = True
    return strides


__all__ = [
    "GRID_UNIFORM_FIELDS",
    "STATIC_WARP_UNIFORM_FIELDS",
    "UniformityInfo",
    "analyze_affine",
    "analyze_uniformity",
    "count_thread_invariant_operands",
]
