"""Dead-code elimination.

The paper relies on "a subsequent dead-code elimination pass" to remove
the pack/unpack instructions that explicit replication leaves unused
(§4, Non-vectorizable Instructions). This is a liveness-driven,
per-block backward sweep: an instruction is dead when it has no side
effects and its destination is not read before being overwritten (or
the block ends and the register is not live-out).
"""

from __future__ import annotations

from typing import Set

from ..ir.basicblock import BasicBlock
from ..ir.function import IRFunction
from ..ir.instructions import AtomicRMW, Load
from ..ir.liveness import LivenessInfo
from ..ir.values import VirtualRegister


def _has_side_effects(instruction) -> bool:
    """Of the instructions that write a register, the ones that must
    stay whether or not it is read (stores and context writes write
    none, so the sweep never asks about them)."""
    return isinstance(instruction, AtomicRMW) or (
        isinstance(instruction, Load) and instruction.volatile
    )


def eliminate_dead_code(function: IRFunction) -> int:
    """Remove dead instructions. Returns the number removed.

    Iterates to a fixed point because removing one dead instruction can
    make its operands' definitions dead too. Within a block the
    backward sweep already follows such chains; across blocks they
    show as a smaller live-out set, so after a sweep that removed
    something only the blocks whose live-out shrank are swept again.
    """
    liveness = LivenessInfo(function)
    pending = blocks = function.ordered_blocks()
    total_removed = 0
    while pending:
        shrunk = []
        for block in pending:
            removed = _sweep(block, liveness.live_out[block.label])
            if removed:
                total_removed += removed
                shrunk.append(block)
        if not shrunk:
            break
        before = liveness.live_out
        for block in shrunk:
            liveness.summarize(block)
        liveness.solve()
        pending = [
            block
            for block in blocks
            if liveness.live_out[block.label] != before[block.label]
        ]
    return total_removed


def _sweep(block: BasicBlock, live_out: Set[str]) -> int:
    """Drop the block's dead instructions given what is live after it.
    Returns the number removed."""
    live = set(live_out)
    if block.terminator is not None:
        for value in block.terminator.uses():
            if isinstance(value, VirtualRegister):
                live.add(value.name)
    dead = set()
    instructions = block.instructions
    for index in range(len(instructions) - 1, -1, -1):
        instruction = instructions[index]
        target = instruction.dst
        if target is not None:
            if target.name not in live and not _has_side_effects(
                instruction
            ):
                dead.add(index)
                continue
            live.discard(target.name)
        for value in instruction.uses():
            if isinstance(value, VirtualRegister):
                live.add(value.name)
    if dead:
        block.instructions = [
            instruction
            for index, instruction in enumerate(instructions)
            if index not in dead
        ]
    return len(dead)
