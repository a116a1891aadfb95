"""IR functions — the unit the translation cache specializes.

A function starts as the scalar translation of one PTX kernel. The
vectorizer produces new functions specialized for a warp size, carrying
the extra structure of Algorithms 2-4: entry points, spill slots, and a
scheduler block.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from ..errors import IRVerificationError
from ..ptx.types import DataType
from .basicblock import BasicBlock
from .values import VirtualRegister


class IRFunction:
    """An ordered collection of basic blocks with one entry block.

    Attributes
    ----------
    warp_size:
        The specialization width; 1 for the scalar translation.
    entry_points:
        Maps integer entry IDs to block labels. Entry ID 0 is the
        function entry. Divergent-branch successors and barrier
        resumption points get their own IDs (Algorithm 2/3).
    spill_slots:
        Maps register names to byte offsets in the per-thread local
        spill area used by the yield-on-diverge handlers.
    spill_size:
        Total bytes of the per-thread spill area.
    source_kernel:
        Name of the PTX kernel this function was translated from.
    """

    def __init__(self, name: str, warp_size: int = 1):
        self.name = name
        self.warp_size = warp_size
        self.blocks: Dict[str, BasicBlock] = {}
        self._order: List[str] = []
        self.entry_label: Optional[str] = None
        self.entry_points: Dict[int, str] = {}
        self.spill_slots: Dict[str, int] = {}
        self.spill_size: int = 0
        #: Bytes of user-declared .local variables; the spill area
        #: starts immediately after them in each thread's local memory.
        self.local_segment_size: int = 0
        self.source_kernel: Optional[str] = None
        #: entry ID -> number of live registers its handler restores
        #: (per thread) — the Figure 8 statistic.
        self.restore_counts: Dict[int, int] = {}
        self._register_counter = 0
        #: Lazily computed dense numbering (see :meth:`register_slots`).
        self._register_slots: Optional[Dict[str, int]] = None

    # -- blocks --------------------------------------------------------------

    def add_block(
        self, label: str, make_entry: bool = False
    ) -> BasicBlock:
        if label in self.blocks:
            raise IRVerificationError(
                f"duplicate block label {label!r} in {self.name}"
            )
        block = BasicBlock(label)
        self.blocks[label] = block
        self._order.append(label)
        if make_entry or self.entry_label is None:
            self.entry_label = label
        return block

    def block(self, label: str) -> BasicBlock:
        try:
            return self.blocks[label]
        except KeyError:
            raise IRVerificationError(
                f"no block {label!r} in {self.name}"
            ) from None

    @property
    def entry_block(self) -> BasicBlock:
        return self.blocks[self.entry_label]

    def ordered_blocks(self) -> List[BasicBlock]:
        return [self.blocks[label] for label in self._order]

    def prepend_block(self, label: str) -> BasicBlock:
        """Insert a new block at the front and make it the entry
        (used by CreateScheduler, Algorithm 3)."""
        if label in self.blocks:
            raise IRVerificationError(
                f"duplicate block label {label!r} in {self.name}"
            )
        block = BasicBlock(label)
        self.blocks[label] = block
        self._order.insert(0, label)
        self.entry_label = label
        return block

    def remove_blocks(self, labels: Iterable[str]) -> None:
        """Delete the named blocks with one pass over the layout (a
        transform that drops many pays for the layout once)."""
        for label in labels:
            del self.blocks[label]
        self._order = [
            label for label in self._order if label in self.blocks
        ]
        if self.entry_label not in self.blocks:
            self.entry_label = self._order[0] if self._order else None

    def fresh_label(self, hint: str) -> str:
        label = hint
        counter = 0
        while label in self.blocks:
            counter += 1
            label = f"{hint}_{counter}"
        return label

    # -- registers -----------------------------------------------------------

    def fresh_register(
        self, dtype: DataType, width: int = 1, hint: str = "v"
    ) -> VirtualRegister:
        name = f"{hint}.{self._register_counter}"
        self._register_counter += 1
        return VirtualRegister(name=name, dtype=dtype, width=width)

    # -- traversal -----------------------------------------------------------

    def instructions(self) -> Iterator[object]:
        for block in self.ordered_blocks():
            yield from block.all_instructions()

    def instruction_count(self) -> int:
        return sum(len(block) for block in self.ordered_blocks())

    def registers(self) -> List[VirtualRegister]:
        seen = {}
        for instruction in self.instructions():
            defined = instruction.dst
            if defined is not None:
                seen[defined.name] = defined
            for used in instruction.uses():
                if isinstance(used, VirtualRegister):
                    seen.setdefault(used.name, used)
        return list(seen.values())

    def register_slots(self, refresh: bool = False) -> Dict[str, int]:
        """Dense integer numbering of every virtual register.

        The machine lowering uses these slot numbers to replace
        name-keyed register dictionaries with a flat per-warp register
        file (list indexing in the interpreter's inner loop). Numbering
        follows first definition/use order over the block layout, so it
        is deterministic for a given function body. The result is
        cached; pass ``refresh=True`` after structural edits (the
        lowering does, since it runs after all transforms).
        """
        if refresh or self._register_slots is None:
            self._register_slots = {
                register.name: slot
                for slot, register in enumerate(self.registers())
            }
        return self._register_slots

    # -- entry points ----------------------------------------------------

    def add_entry_point(self, block_label: str) -> int:
        """Register ``block_label`` as resumable and return its ID."""
        for entry_id, label in self.entry_points.items():
            if label == block_label:
                return entry_id
        entry_id = len(self.entry_points)
        self.entry_points[entry_id] = block_label
        return entry_id

    def __str__(self):
        header = f"function {self.name} (warp_size={self.warp_size})"
        if self.entry_points:
            entries = ", ".join(
                f"{entry_id}:{label}"
                for entry_id, label in sorted(self.entry_points.items())
            )
            header += f" entries[{entries}]"
        parts = [header]
        parts.extend(str(block) for block in self.ordered_blocks())
        return "\n".join(parts)
