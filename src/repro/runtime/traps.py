"""Structured kernel traps and watchdog reports.

Every runtime fault raised inside the interpreter while a warp executes
is caught at the warp-execution boundary (``ExecutionManager``) and
re-raised as a :class:`~repro.errors.KernelTrap` carrying a
:class:`TrapInfo`: kernel name, grid geometry, per-lane CTA/thread
coordinates, the program counter (block label + instruction index) the
interpreter annotated on the fault, the faulting instruction itself,
and a bounded register snapshot. :func:`format_trap` renders the whole
payload as a human-readable diagnostic report.

Watchdog expiries (:class:`~repro.errors.LaunchTimeout`) carry a list
of :class:`ProgramPoint` — one per live thread — rendered by
:func:`format_timeout`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import DeviceLost, KernelTrap, LaunchTimeout

#: Most register values rendered into a trap snapshot.
SNAPSHOT_LIMIT = 24

#: Most vector elements rendered per register value.
_ELEMENT_LIMIT = 8

#: Most program points listed inline in a LaunchTimeout message (the
#: full list is always available on ``timeout.program_points``).
_POINT_LIMIT = 32


@dataclass(frozen=True)
class LaneState:
    """One warp lane at the moment of a trap."""

    lane: int
    ctaid: Tuple[int, int, int]
    tid: Tuple[int, int, int]
    entry_point: int
    faulting: bool = False


@dataclass
class TrapInfo:
    """The structured payload of a :class:`~repro.errors.KernelTrap`."""

    kernel: str
    worker_id: int
    warp_id: int
    warp_size: int
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    entry_point: int
    entry_label: Optional[str]
    #: Block label the interpreter was executing when the fault fired
    #: (annotated on the exception by the run loops); None if the fault
    #: escaped before any block ran.
    block_label: Optional[str]
    #: Index of the faulting instruction within its block; -1 when
    #: unknown, ``len(body)`` (rendered "terminator") for terminators.
    instruction_index: int
    #: Rendered faulting instruction, when it could be identified.
    instruction: Optional[str]
    lanes: List[LaneState] = field(default_factory=list)
    #: Bounded register/operand snapshot: name -> rendered value.
    registers: Dict[str, str] = field(default_factory=dict)
    cause_type: str = ""
    cause: str = ""
    #: The :class:`~repro.sanitizer.SanitizerReport` behind this trap,
    #: when the cause is a SanitizerError; None for ordinary faults.
    sanitizer: Optional[object] = None

    @property
    def faulting_lanes(self) -> List[LaneState]:
        return [lane for lane in self.lanes if lane.faulting]


@dataclass(frozen=True)
class ProgramPoint:
    """One live thread's program point in a watchdog report."""

    ctaid: Tuple[int, int, int]
    tid: Tuple[int, int, int]
    entry_point: int
    label: Optional[str]
    #: Scheduling state: "running", "ready", or "barrier".
    state: str = "running"

    def __str__(self):
        where = self.label if self.label is not None else "?"
        return (
            f"cta={self.ctaid} tid={self.tid} "
            f"entry={self.entry_point} at {where} [{self.state}]"
        )


def _render_value(value) -> str:
    """A short, bounded rendering of one register value."""
    try:
        import numpy as np

        if isinstance(value, np.ndarray):
            if value.size > _ELEMENT_LIMIT:
                head = ", ".join(
                    str(element) for element in value[:_ELEMENT_LIMIT]
                )
                return f"[{head}, ... +{value.size - _ELEMENT_LIMIT}]"
            return "[" + ", ".join(str(element) for element in value) + "]"
    except Exception:  # pragma: no cover - numpy always importable here
        pass
    return str(value)


def snapshot_registers(state, limit: int = SNAPSHOT_LIMIT) -> Dict[str, str]:
    """A bounded name -> rendered-value snapshot of a warp state's
    register file (``state.regs``, indexed by the executable's
    register slots): the registers the PTX source names, in natural
    order. Compiler temporaries are left out (every ``fresh_register``
    name contains a ``.``, which no PTX register name can): the bound
    goes to what the user wrote, and a lowering may leave anything in
    a dead temporary (one private to a block is never written to the
    register file at all)."""
    def natural(name: str) -> list:  # r2 before r10
        parts = re.split("([0-9]+)", name)  # text, digits, text, ...
        parts[1::2] = map(int, parts[1::2])
        return parts

    rendered: Dict[str, str] = {}
    executable = getattr(state, "executable", None)
    slots = getattr(executable, "register_slots", None) or {}
    regs = getattr(state, "regs", None) or []
    for name in sorted((n for n in slots if "." not in n), key=natural):
        slot = slots[name]
        if slot >= len(regs):
            continue
        value = regs[slot]
        if value is None:
            continue
        rendered[name] = _render_value(value)
        if len(rendered) >= limit:
            return rendered
    return rendered


def _faulting_instruction(executable, label, index):
    """Look up the faulting instruction object, or None."""
    if executable is None or label is None or index is None or index < 0:
        return None
    function = getattr(executable, "function", None)
    if function is None:
        return None
    block = function.blocks.get(label)
    if block is None:
        return None
    if index >= len(block.instructions):
        return block.terminator
    return block.instructions[index]


def build_trap(
    kernel_name: str,
    geometry,
    warp,
    executable,
    state,
    cause: Exception,
    worker_id: int = 0,
) -> KernelTrap:
    """Assemble a :class:`~repro.errors.KernelTrap` from the faulting
    warp's context. ``cause`` is the ExecutionError the interpreter
    raised, annotated (by the run loops) with ``trap_label`` /
    ``trap_index`` when the fault fired inside a block."""
    label = getattr(cause, "trap_label", None)
    index = getattr(cause, "trap_index", None)
    if index is None:
        index = -1
    instruction = _faulting_instruction(executable, label, index)
    # A memory/context instruction names the lane it operates on (a
    # lane group, the run loop the lane whose access faulted); only that
    # lane faulted. Anything else implicates the whole warp.
    faulting_lane = getattr(cause, "trap_lane", None)
    if faulting_lane is None:
        faulting_lane = getattr(instruction, "lane", None)
    lanes = [
        LaneState(
            lane=position,
            ctaid=context.ctaid,
            tid=context.tid,
            entry_point=context.resume_point,
            faulting=(faulting_lane is None or faulting_lane == position),
        )
        for position, context in enumerate(warp.contexts)
    ]
    function = getattr(executable, "function", None)
    entry_point = warp.entry_point
    entry_label = None
    if function is not None:
        entry_label = function.entry_points.get(entry_point)
    info = TrapInfo(
        kernel=kernel_name,
        worker_id=worker_id,
        warp_id=warp.warp_id,
        warp_size=warp.size,
        grid=geometry.grid,
        block=geometry.block,
        entry_point=entry_point,
        entry_label=entry_label,
        block_label=label,
        instruction_index=index,
        instruction=repr(instruction) if instruction is not None else None,
        lanes=lanes,
        registers=snapshot_registers(state),
        cause_type=type(cause).__name__,
        cause=str(cause),
        sanitizer=getattr(cause, "report", None),
    )
    faulting = info.faulting_lanes or lanes
    coordinates = ", ".join(
        f"cta={lane.ctaid} tid={lane.tid}" for lane in faulting[:4]
    )
    if len(faulting) > 4:
        coordinates += f", ... +{len(faulting) - 4} lanes"
    where = label if label is not None else "?"
    pc = _render_pc(info)
    message = (
        f"kernel trap in {kernel_name!r}: {info.cause_type}: {info.cause} "
        f"at block {where!r} instruction {pc} ({coordinates})"
    )
    return KernelTrap(message, info=info)


def _render_pc(info: TrapInfo) -> str:
    if info.instruction_index < 0:
        return "?"
    function_index = info.instruction_index
    return str(function_index)


def format_trap(trap) -> str:
    """Render a :class:`~repro.errors.KernelTrap` (or a bare
    :class:`TrapInfo`) as a multi-line diagnostic report. The
    ``registers`` section lists PTX-named registers only, in natural
    order (see :func:`snapshot_registers`)."""
    info = trap.info if isinstance(trap, KernelTrap) else trap
    if info is None:
        return f"KernelTrap (no structured payload): {trap}"
    lines = [
        f"== kernel trap: {info.kernel} ==",
        f"cause        {info.cause_type}: {info.cause}",
        f"geometry     grid={info.grid} block={info.block}",
        f"warp         id={info.warp_id} size={info.warp_size} "
        f"worker={info.worker_id}",
        f"entry point  {info.entry_point}"
        + (f" ({info.entry_label})" if info.entry_label else ""),
        f"program ctr  block={info.block_label!r} "
        f"instruction index={_render_pc(info)}",
    ]
    if info.instruction is not None:
        lines.append(f"instruction  {info.instruction}")
    lines.append("lanes:")
    for lane in info.lanes:
        marker = " <- FAULT" if lane.faulting else ""
        lines.append(
            f"  lane {lane.lane}: cta={lane.ctaid} tid={lane.tid} "
            f"entry={lane.entry_point}{marker}"
        )
    if info.registers:
        lines.append(f"registers (first {len(info.registers)}):")
        for name, value in info.registers.items():
            lines.append(f"  {name:<16} = {value}")
    if info.sanitizer is not None:
        from ..sanitizer.reports import format_sanitizer_report

        lines.append("sanitizer:")
        for line in format_sanitizer_report(info.sanitizer).splitlines():
            lines.append(f"  {line}")
    return "\n".join(lines)


def build_timeout(
    kernel_name: str,
    reason: str,
    program_points: List[ProgramPoint],
) -> LaunchTimeout:
    """Assemble a :class:`~repro.errors.LaunchTimeout` listing every
    live thread's program point."""
    listed = "\n".join(
        f"  {point}" for point in program_points[:_POINT_LIMIT]
    )
    suffix = ""
    if len(program_points) > _POINT_LIMIT:
        suffix = (
            f"\n  ... +{len(program_points) - _POINT_LIMIT} more threads"
        )
    message = (
        f"launch of {kernel_name!r} timed out: {reason}; "
        f"{len(program_points)} live thread(s):\n{listed}{suffix}"
    )
    return LaunchTimeout(
        message, kernel=kernel_name, program_points=program_points
    )


def format_timeout(timeout: LaunchTimeout) -> str:
    """Render a :class:`~repro.errors.LaunchTimeout` report (the full
    program-point list, not the bounded message form)."""
    lines = [f"== launch timeout: {timeout.kernel} ==", str(timeout)]
    return "\n".join(lines)


def format_device_lost(error: DeviceLost) -> str:
    """Render a :class:`~repro.errors.DeviceLost` report: which worker
    died, why, at which device epoch, and whether the failed request
    had already been delivered to it (and may therefore have run)."""
    lines = [f"== device lost: worker {error.worker} ==", str(error)]
    if error.cause is not None:
        lines.append(f"cause:     {error.cause}")
    if error.epoch is not None:
        lines.append(
            f"epoch:     {error.epoch} (respawned worker runs at "
            f"{error.epoch + 1}; allocations from epoch "
            f"{error.epoch} and earlier are invalid)"
        )
    lines.append(
        "delivered: "
        + (
            "yes — the request reached the worker and may have "
            "mutated guest memory; it is never retried automatically"
            if error.delivered
            else "no — the request never left the parent and is safe "
            "to re-dispatch"
        )
    )
    return "\n".join(lines)
