"""Common-subexpression elimination.

§6.2: "Standard common subexpression elimination optimizations
downstream of vectorization eliminates redundant thread-invariant
expressions via a conservative analysis." This pass implements local
value numbering per block, extended across the dominator tree
(an expression computed in a dominating block is reusable), over the
pure instruction set: arithmetic, compares, selects, conversions,
intrinsics, context reads and extract/insert/broadcast shuffles.

Because the IR is not SSA, an available expression dies when any of its
source registers — or its destination — is redefined. The pass tracks
that invalidation precisely within a block and conservatively discards
cross-block expressions whose inputs are redefined anywhere in the
function more than once.
"""

from __future__ import annotations

import struct
from collections import Counter
from typing import Collection, Dict, List, Optional, Set, Tuple

from ..ir.dominance import DominatorTree
from ..ir.function import IRFunction
from ..ir.instructions import (
    VECTORIZABLE,
    BinaryOp,
    Broadcast,
    ContextRead,
    ExtractElement,
    InsertElement,
    UnaryOp,
)
from ..ir.values import Constant, VirtualRegister

#: Instruction classes whose result depends on their operands (and
#: their :meth:`signature`) alone.
_PURE = frozenset(
    VECTORIZABLE + (ContextRead, ExtractElement, InsertElement, Broadcast)
)

#: Binary operators whose operands may be exchanged bit for bit.
_COMMUTATIVE = {"and", "or", "xor"}

#: ... and those that may on integers only: the machine's
#: ``np.minimum``/``np.maximum`` return the *second* operand on a tie,
#: and ``0.0`` ties with ``-0.0``; a float ``a + b`` or ``a * b`` of
#: two NaNs returns one operand's payload — the first's over arrays,
#: the second's over numpy scalars.
_COMMUTATIVE_ON_INTEGERS = {"add", "mul", "min", "max"}

#: Context fields whose value changes between two reads, or belongs to
#: the warp rather than the thread: a thread's lane and warp change
#: when the scheduler re-forms warps at a resume point.
_VOLATILE_FIELDS = ("clock", "resume_point", "laneid", "warpid")


def _expression_key(instruction) -> Optional[Tuple[tuple, List[str]]]:
    """``(key, names)`` of a pure computation — a hashable identity and
    the registers it reads — or None if the instruction is not
    CSE-able. A copy of a register is not: it is what a replacement
    leaves, reusing one copy for another saves nothing, and a second
    run would find the copies the first one made.

    A register is keyed by its name (the storage it names, whatever
    the width), a constant by type and *bit pattern*: ``0.0 == -0.0``
    and they hash alike, but ``x * 0.0`` and ``x * -0.0`` are different
    values; and ``x + NaN`` is the NaN's payload, whichever it is.
    """
    kind = instruction.__class__
    if kind not in _PURE or (
        kind is ContextRead and instruction.field_name in _VOLATILE_FIELDS
    ) or (kind is UnaryOp and instruction.op == "mov"
          and instruction.a.__class__ is VirtualRegister):
        return None
    names: List[str] = []
    atoms = []
    for value in instruction.uses():
        if isinstance(value, VirtualRegister):
            names.append(value.name)
            atoms.append(value.name)
        elif isinstance(value, Constant):
            pattern = value.value
            if value.dtype.is_float:
                pattern = struct.pack("<d", pattern)
            atoms.append((value.dtype.suffix, pattern))
        else:
            return None
    if kind is BinaryOp and (
        instruction.op in _COMMUTATIVE
        or instruction.op in _COMMUTATIVE_ON_INTEGERS
        and instruction.dtype.is_integer
    ):
        return instruction.signature() + (frozenset(atoms),), names
    return instruction.signature() + tuple(atoms), names


def _multiply_defined(function: IRFunction) -> Set[str]:
    """Names of the registers written by more than one instruction."""
    written = Counter(
        instruction.dst.name
        for instruction in function.instructions()
        if instruction.dst is not None
    )
    return {name for name, times in written.items() if times > 1}


def eliminate_common_subexpressions(
    function: IRFunction, scopes: Collection[str] = ()
) -> int:
    """Run dominator-scoped value numbering. Returns replacements made.

    Replaced instructions become copies (``mov``) from the equivalent
    register so downstream DCE can drop them when unused.

    One table, ``inherited``, holds what the blocks dominating the
    current one computed (the nearest wins): a block adds its
    expressions when it is done and takes them back when its subtree
    of the dominator tree is, so a lookup costs the same at any depth.
    A block in ``scopes`` (on the scalar IR, the resume entry points a
    vectorized kernel re-enters through its scheduler) is an entry of
    the dominator tree, so it roots a tree of its own, as an
    unreachable block does, and so does a block that a path from its
    immediate dominator reaches through one: they inherit nothing.
    """
    replaced = 0
    dominators = DominatorTree(function, scopes)
    children: Dict[str, List[str]] = {}
    roots: List[str] = []
    for label in function.blocks:
        parent = dominators.immediate_dominator(label)
        if parent is None:
            roots.append(label)
        else:
            children.setdefault(parent, []).append(label)
    unstable = _multiply_defined(function)
    inherited: Dict[tuple, VirtualRegister] = {}

    def number(label: str) -> Dict[tuple, VirtualRegister]:
        """Value-number one block; returns what it leaves available."""
        nonlocal replaced
        instructions = function.blocks[label].instructions
        local: Dict[tuple, VirtualRegister] = {}
        # Expression keys by the registers they depend on (operands
        # and result): a definition invalidates exactly those.
        by_register: Dict[str, List[tuple]] = {}
        for index, instruction in enumerate(instructions):
            target = instruction.dst
            if target is None:
                continue
            expression = _expression_key(instruction)
            if expression is not None:
                key, names = expression
                existing = local.get(key)
                if existing is None:
                    existing = inherited.get(key)
                    if existing is not None and (
                        existing.name in unstable
                        or not unstable.isdisjoint(names)
                    ):
                        existing = None
                if (
                    existing is not None
                    and existing.dtype == target.dtype
                    and existing.width == target.width
                ):
                    instructions[index] = UnaryOp(
                        op="mov", dtype=target.dtype, dst=target, a=existing
                    )
                    replaced += 1
                    expression = None
            for stale in by_register.pop(target.name, ()):
                local.pop(stale, None)
            # Self-referential computations (x = fma(x, m, c)) must
            # not be recorded: the expression reads the value the
            # instruction itself just destroyed.
            if expression is not None and target.name not in names:
                local[key] = target
                names.append(target.name)
                for name in names:
                    by_register.setdefault(name, []).append(key)
        return local

    # Preorder over each tree; a block's second visit (its subtree is
    # done) takes its expressions out of ``inherited``.
    stack: List[tuple] = [(label, None) for label in reversed(roots)]
    while stack:
        label, shadowed = stack.pop()
        if shadowed is not None:
            for key, previous in shadowed:
                if previous is None:
                    del inherited[key]
                else:
                    inherited[key] = previous
            continue
        local = number(label)
        stack.append(
            (label, [(key, inherited.get(key)) for key in local])
        )
        inherited.update(local)
        stack.extend(
            (child, None) for child in reversed(children.get(label, ()))
        )
    return replaced
