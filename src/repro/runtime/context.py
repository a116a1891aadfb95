"""Thread contexts and warps.

A :class:`ThreadContext` is the paper's "context object identifying the
executing thread" (§4): grid/block geometry, thread coordinates, base
pointers for its shared and local segments, and the resume point used
by the yield-on-diverge machinery. A :class:`Warp` is an ordered
collection of contexts entering the same block (§3, "warp formation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(slots=True)
class ThreadContext:
    """One light-weight PTX thread."""

    tid: Tuple[int, int, int]
    ntid: Tuple[int, int, int]
    ctaid: Tuple[int, int, int]
    nctaid: Tuple[int, int, int]
    #: Absolute arena address of this thread's CTA shared segment.
    shared_base: int = 0
    #: Absolute arena address of this thread's private local segment
    #: (user .local variables followed by the spill area).
    local_base: int = 0
    #: Entry-point ID at which the thread resumes (0 = kernel entry).
    resume_point: int = 0
    #: ``ctaid`` linearised over the grid: the execution manager's key
    #: for the thread's CTA. Derived once, here, unless the creator of
    #: a whole CTA's contexts passes what it already has.
    linear_ctaid: Optional[int] = None

    def __post_init__(self):
        if self.linear_ctaid is None:
            x, y, z = self.ctaid
            nx, ny, _ = self.nctaid
            self.linear_ctaid = x + nx * (y + ny * z)

    @property
    def linear_tid(self) -> int:
        x, y, z = self.tid
        nx, ny, _ = self.ntid
        return x + nx * (y + ny * z)

    def __repr__(self):
        return (
            f"<Thread cta={self.ctaid} tid={self.tid} "
            f"entry={self.resume_point}>"
        )


class Warp:
    """Threads executing one vectorized subkernel entry together: a
    slotted record carrying the ready-pool key it was formed from, so
    nothing downstream re-reads it off a thread. ``entry_point`` (by
    default the first thread's resume point) stays the entry the warp
    was formed at while the resume points move on; ``cta`` is the one
    CTA of its threads (None under cross-CTA formation, whose key is
    the entry point alone, and for warps built elsewhere)."""

    __slots__ = ("contexts", "warp_id", "size", "entry_point", "cta")

    def __init__(
        self, contexts: List[ThreadContext], warp_id: int = 0,
        entry_point: Optional[int] = None, cta: Optional[int] = None,
    ):
        self.contexts = contexts
        self.warp_id = warp_id
        self.size = len(contexts)
        if entry_point is None:
            entry_point = contexts[0].resume_point
        self.entry_point = entry_point
        self.cta = cta

    def __repr__(self):
        return (
            f"<Warp #{self.warp_id} size={self.size} "
            f"entry={self.entry_point}>"
        )
