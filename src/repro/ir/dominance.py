"""Dominator analysis (Cooper-Harvey-Kennedy iterative algorithm).

Used by the verifier, by block merging, and by the thread-invariant
analysis to reason about expressions valid at a use point.
"""

from __future__ import annotations

from typing import Dict, Optional

from .cfg import ControlFlowGraph
from .function import IRFunction


class DominatorTree:
    """Immediate-dominator map for the blocks reachable from entry."""

    def __init__(self, function: IRFunction):
        self.function = function
        cfg = ControlFlowGraph(function)
        self.cfg = cfg
        order = cfg.reverse_postorder()
        reachable = cfg.reachable()
        order = [label for label in order if label in reachable]
        index = {label: position for position, label in enumerate(order)}
        entry = function.entry_label
        idom: Dict[str, Optional[str]] = {entry: entry}

        def intersect(a: str, b: str) -> str:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for label in order:
                if label == entry:
                    continue
                candidates = [
                    p
                    for p in cfg.predecessors.get(label, [])
                    if p in idom and p in index
                ]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for other in candidates[1:]:
                    new_idom = intersect(new_idom, other)
                if idom.get(label) != new_idom:
                    idom[label] = new_idom
                    changed = True
        self.idom = idom
        self._order = order

    def immediate_dominator(self, label: str) -> Optional[str]:
        if label == self.function.entry_label:
            return None
        return self.idom.get(label)

    def dominates(self, a: str, b: str) -> bool:
        """True if block ``a`` dominates block ``b``."""
        if b not in self.idom:
            return False
        current = b
        entry = self.function.entry_label
        while True:
            if current == a:
                return True
            if current == entry:
                return a == entry
            current = self.idom[current]
