"""Dominator analysis (Cooper-Harvey-Kennedy iterative algorithm).

Common-subexpression elimination reuses an expression in the blocks
its block dominates.
"""

from __future__ import annotations

from typing import Collection, Dict, Optional

from .cfg import ControlFlowGraph
from .function import IRFunction


class DominatorTree:
    """Immediate-dominator map for the blocks reachable from entry.

    ``entries`` are blocks also entered from outside the function (the
    resume entry points a vectorized kernel's scheduler re-enters):
    each gets one more predecessor, a root above the entry block, so
    no block dominates an entry, nor a block that a path from its
    dominator reaches through one.
    """

    def __init__(self, function: IRFunction, entries: Collection[str] = ()):
        self.function = function
        cfg = ControlFlowGraph(function)
        self.cfg = cfg
        reachable = cfg.reachable()
        # ``None`` is the root: the immediate dominator of the entry
        # block and of every block in ``entries``.
        order = [None] + [
            label for label in cfg.reverse_postorder() if label in reachable
        ]
        index = {label: position for position, label in enumerate(order)}
        entries = {function.entry_label, *entries}
        idom: Dict[Optional[str], Optional[str]] = {None: None}

        def intersect(a: Optional[str], b: Optional[str]) -> Optional[str]:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for label in order[1:]:
                candidates = [
                    p for p in cfg.predecessors.get(label, []) if p in idom
                ]
                if label in entries:
                    candidates.append(None)
                if not candidates:
                    continue
                new_idom = candidates[0]
                for other in candidates[1:]:
                    new_idom = intersect(new_idom, other)
                if label not in idom or idom[label] != new_idom:
                    idom[label] = new_idom
                    changed = True
        self.idom = idom

    def immediate_dominator(self, label: str) -> Optional[str]:
        """None for the entry block, a block in ``entries`` and a block
        no path from the entry reaches."""
        return self.idom.get(label)

    def dominates(self, a: str, b: str) -> bool:
        """True if block ``a`` dominates block ``b``."""
        if b not in self.idom:
            return False
        current: Optional[str] = b
        while current is not None:
            if current == a:
                return True
            current = self.idom[current]
        return False
