"""Live-variable analysis.

Backward may-dataflow over virtual registers. The vectorizer's exit
handlers spill exactly the registers live *out* of a divergence site,
and entry handlers restore the registers live *in* to a resumption block
(Algorithms 3/4; Figure 8 measures the restored counts).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Set

from .function import IRFunction
from .values import VirtualRegister


class LivenessInfo:
    """Per-block live-in / live-out register-name sets."""

    def __init__(self, function: IRFunction):
        self.function = function
        blocks = function.ordered_blocks()[::-1]
        # Each block's upward-exposed uses and definitions, read once;
        # the dataflow then iterates on these name sets alone.
        use: Dict[str, Set[str]] = {}
        define: Dict[str, Set[str]] = {}
        for block in blocks:
            exposed: Set[str] = set()
            killed: Set[str] = set()
            for instruction in block.all_instructions():
                for value in instruction.uses():
                    if (
                        isinstance(value, VirtualRegister)
                        and value.name not in killed
                    ):
                        exposed.add(value.name)
                defined = instruction.dst
                if defined is not None:
                    killed.add(defined.name)
            use[block.label] = exposed
            define[block.label] = killed
        successors = {
            block.label: block.successors() for block in blocks
        }
        live_in = self.live_in = {block.label: set() for block in blocks}
        live_out = self.live_out = {block.label: set() for block in blocks}
        changed = True
        while changed:
            changed = False
            for block in blocks:
                label = block.label
                out: Set[str] = set()
                for successor in successors[label]:
                    out.update(live_in.get(successor, ()))
                if out != live_out[label]:
                    live_out[label] = out
                    changed = True
                new_in = use[label] | (out - define[label])
                if new_in != live_in[label]:
                    live_in[label] = new_in
                    changed = True

    @cached_property
    def _types(self) -> Dict[str, VirtualRegister]:
        """Name -> register, for the callers that turn names back into
        registers (the vectorizer's handlers, the cost model's register
        pressure); dead-code elimination never asks."""
        return {
            register.name: register
            for register in self.function.registers()
        }

    def register(self, name: str) -> VirtualRegister:
        return self._types[name]

    def live_in_registers(self, label: str) -> List[VirtualRegister]:
        """Live-in registers sorted by name for deterministic handler
        emission order."""
        return [
            self._types[name] for name in sorted(self.live_in[label])
        ]

    def live_out_registers(self, label: str) -> List[VirtualRegister]:
        return [
            self._types[name] for name in sorted(self.live_out[label])
        ]
