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

    Within a block the backward sweep follows a chain of dead
    definitions; across blocks a removal shows as a smaller live-out
    set, so sweeps repeat until one removes nothing.
    """
    total_removed = 0
    while True:
        live_out = LivenessInfo(function).live_out
        removed = sum(
            _sweep(block, live_out[block.label])
            for block in function.ordered_blocks()
        )
        if not removed:
            return total_removed
        total_removed += removed


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
