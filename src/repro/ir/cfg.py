"""Control-flow graph queries over an :class:`~repro.ir.function.
IRFunction`.

The CFG is computed on demand from block terminators. Transform passes
mutate blocks and then rebuild; nothing here is cached across edits.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .function import IRFunction


class ControlFlowGraph:
    """Predecessor/successor maps plus reachability helpers."""

    def __init__(self, function: IRFunction):
        self.function = function
        self.successors: Dict[str, List[str]] = {}
        self.predecessors: Dict[str, List[str]] = {}
        for block in function.ordered_blocks():
            self.successors[block.label] = list(block.successors())
            self.predecessors.setdefault(block.label, [])
        for label, targets in self.successors.items():
            for target in targets:
                self.predecessors.setdefault(target, [])
                self.predecessors[target].append(label)

    def reachable(self) -> Set[str]:
        """Labels reachable from the entry block."""
        return _reachable(self.function, [self.function.entry_label])

    def reverse_postorder(self) -> List[str]:
        """Blocks in reverse postorder from the entry — the traversal
        order the vectorizer uses (§4: breadth-first-flavoured walk)."""
        visited: Set[str] = set()
        order: List[str] = []

        def visit(label: str) -> None:
            stack = [(label, iter(self.successors.get(label, [])))]
            visited.add(label)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for successor in successors:
                    if successor not in visited:
                        visited.add(successor)
                        stack.append(
                            (
                                successor,
                                iter(self.successors.get(successor, [])),
                            )
                        )
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self.function.entry_label)
        # Entry points added by the scheduler may make extra roots; make
        # sure every block appears.
        for block in self.function.ordered_blocks():
            if block.label not in visited:
                visit(block.label)
        order.reverse()
        return order


def _reachable(function: IRFunction, roots: List[str]) -> Set[str]:
    """Labels of the blocks reachable from ``roots``: one walk over the
    terminators, whatever the number of roots."""
    blocks = function.blocks
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        label = stack.pop()
        if label in seen or label not in blocks:
            continue
        seen.add(label)
        stack.extend(blocks[label].successors())
    return seen


def addressable_labels(function: IRFunction) -> Set[str]:
    """Labels of the blocks control can reach: from the entry, or from
    any registered entry point (a warp may resume at each of them)."""
    return _reachable(
        function, [function.entry_label, *function.entry_points.values()]
    )


def remove_unreachable_blocks(function: IRFunction) -> int:
    """Delete blocks unreachable from the entry (and from any registered
    entry point). Returns the number removed."""
    live = addressable_labels(function)
    dead = [label for label in function.blocks if label not in live]
    function.remove_blocks(dead)
    return len(dead)
