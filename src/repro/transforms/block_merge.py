"""Basic-block fusion (straightening).

The paper's translation cache "applies existing LLVM transformation
passes including traditional compiler optimizations such as basic block
fusion" (§5.1). A block ending in an unconditional branch merges with
its unique successor when that successor has no other predecessors and
is not independently addressable (function entry, scheduler entry
handler, or resume target).
"""

from __future__ import annotations

from typing import Dict, Set

from ..ir.function import IRFunction
from ..ir.instructions import Branch


def merge_blocks(function: IRFunction) -> int:
    """Fuse trivially linear block chains. Returns merges performed.

    A merge moves the successor's edges to the merged block and takes
    one edge (the branch between the two) away with the successor, so
    the number of edges into every surviving block — counted once —
    stays what it was, and a block that could not merge before one
    cannot after it: one pass in layout order, following each chain to
    its end, finds every merge.
    """
    protected: Set[str] = {function.entry_label}
    protected.update(function.entry_points.values())
    blocks = function.blocks
    incoming: Dict[str, int] = {}
    for block in blocks.values():
        for successor in block.successors():
            incoming[successor] = incoming.get(successor, 0) + 1
    merged: Set[str] = set()
    for block in function.ordered_blocks():
        if block.label in merged:
            continue
        while isinstance(block.terminator, Branch):
            label = block.terminator.target
            if (
                label in protected
                or label == block.label
                or incoming.get(label) != 1
            ):
                break
            successor = blocks[label]
            block.instructions.extend(successor.instructions)
            block.terminator = successor.terminator
            merged.add(label)
    function.remove_blocks(merged)
    return len(merged)
