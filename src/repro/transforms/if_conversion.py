"""If-conversion: replace pure conditional diamonds with selects.

The paper contrasts its yield-on-diverge approach with the
predication-style vectorizers of Karrenberg and Shin (§7): "These
works replace conditional control-flow with conditional data-flow and
rely on predication ... Predication is a light-weight technique for
disabling divergent or terminated threads along some control paths but
reduces SIMD utilization."

This pass implements the conditional-data-flow side of that contrast
for the cases where it is unambiguously safe: a diamond (or triangle)
whose arms are short, straight-line and *pure* — no memory accesses,
atomics, context writes or nested control flow — collapses into
straight-line code with per-register ``select``s. Both arms then
execute on every lane (the utilization cost the paper describes), but
the divergence site disappears, so no yield/re-formation round trip is
paid.

Applied to the scalar function before vectorization and exposed as the
``if_conversion`` knob of :class:`~repro.runtime.config.
ExecutionConfig`; the ablation benchmark quantifies the trade against
yield-on-diverge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.cfg import ControlFlowGraph
from ..ir.function import IRFunction
from ..ir.instructions import VECTORIZABLE, Branch, CondBranch, Select
from ..ir.values import VirtualRegister

#: Default maximum arm length: beyond this, executing both arms on
#: every lane costs more than an occasional divergence yield.
DEFAULT_MAX_ARM_INSTRUCTIONS = 12


class _Arm:
    """One linearized diamond arm: cloned instructions writing fresh
    temporaries, plus the final value of every register it defines."""

    def __init__(
        self, function: IRFunction, block: Optional[BasicBlock]
    ):
        self.instructions: List[object] = []
        #: original register name -> (original register, final value)
        self.final: Dict[str, Tuple[VirtualRegister, object]] = {}
        if block is None:
            return
        renames: Dict[str, object] = {}
        for instruction in block.instructions:
            operands = [
                renames.get(value.name, value)
                if isinstance(value, VirtualRegister)
                else value
                for value in instruction.uses()
            ]
            target = instruction.dst
            fresh = function.fresh_register(
                target.dtype, width=target.width, hint="ifcvt"
            )
            renames[target.name] = fresh
            self.final[target.name] = (target, fresh)
            self.instructions.append(instruction.rebuilt(fresh, operands))


def _arm_convertible(
    block: BasicBlock, join: str, cfg: ControlFlowGraph, limit: int
) -> bool:
    if len(cfg.predecessors.get(block.label, [])) != 1:
        return False
    if not isinstance(block.terminator, Branch):
        return False
    if block.terminator.target != join:
        return False
    if len(block.instructions) > limit:
        return False
    # Both arms will execute on every lane: pure instructions only.
    return all(
        isinstance(instruction, VECTORIZABLE)
        for instruction in block.instructions
    )


def if_convert(
    function: IRFunction,
    max_arm_instructions: int = DEFAULT_MAX_ARM_INSTRUCTIONS,
) -> int:
    """Collapse convertible diamonds/triangles. Returns conversions."""
    conversions = 0
    changed = True
    while changed:
        changed = False
        cfg = ControlFlowGraph(function)
        for block in function.ordered_blocks():
            terminator = block.terminator
            if not isinstance(terminator, CondBranch):
                continue
            if terminator.taken == terminator.fallthrough:
                block.terminator = Branch(terminator.taken)
                changed = True
                break
            conversion = _match(
                function, cfg, block, terminator, max_arm_instructions
            )
            if conversion is None:
                continue
            _apply(function, block, terminator, *conversion)
            conversions += 1
            changed = True
            break
    return conversions


def _match(function, cfg, block, terminator, limit):
    """Recognize a diamond (both arms are fresh blocks joining at J)
    or a triangle (one arm falls straight to the join)."""
    taken = function.blocks[terminator.taken]
    fallthrough = function.blocks[terminator.fallthrough]

    # Diamond: taken -> J, fallthrough -> J.
    if (
        isinstance(taken.terminator, Branch)
        and isinstance(fallthrough.terminator, Branch)
        and taken.terminator.target == fallthrough.terminator.target
    ):
        join = taken.terminator.target
        if join in (taken.label, fallthrough.label, block.label):
            return None
        if _arm_convertible(
            taken, join, cfg, limit
        ) and _arm_convertible(fallthrough, join, cfg, limit):
            return taken, fallthrough, join

    # Triangle: taken -> fallthrough (the join), or vice versa.
    if (
        isinstance(taken.terminator, Branch)
        and taken.terminator.target == terminator.fallthrough
        and taken.label != block.label
        and _arm_convertible(
            taken, terminator.fallthrough, cfg, limit
        )
    ):
        return taken, None, terminator.fallthrough
    if (
        isinstance(fallthrough.terminator, Branch)
        and fallthrough.terminator.target == terminator.taken
        and fallthrough.label != block.label
        and _arm_convertible(
            fallthrough, terminator.taken, cfg, limit
        )
    ):
        return None, fallthrough, terminator.taken
    return None


def _apply(function, block, terminator, taken, fallthrough, join):
    """Linearize the arms into ``block`` and select the results."""
    predicate = terminator.predicate
    block.terminator = None

    taken_arm = _Arm(function, taken)
    fall_arm = _Arm(function, fallthrough)
    block.instructions.extend(taken_arm.instructions)
    block.instructions.extend(fall_arm.instructions)

    defined = sorted(
        set(taken_arm.final) | set(fall_arm.final)
    )
    for name in defined:
        register, taken_value = taken_arm.final.get(
            name, (None, None)
        )
        fall_register, fall_value = fall_arm.final.get(
            name, (None, None)
        )
        register = register or fall_register
        block.instructions.append(
            Select(
                dtype=register.dtype,
                dst=register,
                a=taken_value if taken_value is not None else register,
                b=fall_value if fall_value is not None else register,
                predicate=predicate,
            )
        )
    block.append(Branch(join))
    function.remove_blocks(
        arm.label for arm in (taken, fallthrough) if arm is not None
    )
