"""Issue-slot cost model of the simulated vector processor.

Per-instruction charges are *static*: priced once, when the block
holding the instruction is first lowered (our analogue of code
generation), after which the interpreter simply accumulates
precomputed cycle counts. Costs depend on the machine
description and on the function's register pressure — live vector state
beyond the physical vector register file injects spill/fill traffic,
which is the mechanism behind Table 1's performance cliff at warp
sizes wider than the machine (§6: "executing the above benchmark with a
warp size of 8 threads while targeting SSE results in degraded
performance").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..counting import added, counted
from ..ir.function import IRFunction
from ..ir.instructions import (
    AtomicRMW,
    BarrierTerm,
    BinaryOp,
    Branch,
    Broadcast,
    Compare,
    CondBranch,
    ContextRead,
    ContextWrite,
    Convert,
    Exit,
    ExtractElement,
    FusedMultiplyAdd,
    InsertElement,
    Intrinsic,
    Load,
    Reduce,
    Select,
    Store,
    Switch,
    UnaryOp,
    VectorLoad,
    VectorStore,
    Yield,
)
from ..ir.liveness import LivenessInfo
from ..ir.values import VirtualRegister
from ..ptx.types import AddressSpace
from .descriptor import MachineDescription

_FLOAT_UNITS = {
    "add": 1,
    "sub": 1,
    "mul": 1,
    "div": 4,
    "min": 1,
    "max": 1,
}


def vector_register_pressure(
    function: IRFunction, machine: MachineDescription
) -> int:
    """Maximum physical vector registers live at any block boundary.

    Each live register of width ``w > 1`` occupies ``ceil(w / machine
    width)`` physical registers.
    """
    liveness = LivenessInfo(function)
    pressure = 0
    for label in function.blocks:
        for live_set in (
            liveness.live_in[label],
            liveness.live_out[label],
        ):
            total = 0
            for name in live_set:
                register = liveness.register(name)
                if register.width > 1:
                    total += machine.vector_chunks(register.width)
            pressure = max(pressure, total)
    return pressure


@dataclass
class InstructionCost:
    """Static cycles and floating-point work of one instruction."""

    cycles: int
    flops: int = 0


@dataclass
class FunctionCostTable:
    """Per-instruction costs for one lowered function. Only the
    function-level inputs (register pressure, hence spilling) are
    computed up front; an instruction is priced the first time it is
    asked for, so a block that never executes costs nothing."""

    pressure: int
    spilling: bool
    machine: MachineDescription
    costs: Dict[int, InstructionCost] = field(default_factory=dict)

    def cost_of(self, instruction) -> InstructionCost:
        cost = self.costs.get(id(instruction))
        if cost is None:
            cost = self.costs[id(instruction)] = _instruction_cost(
                instruction, self.machine, self.spilling
            )
        return cost


@counted
class ExecutionStats:
    """What executing counts. Per warp execution it is the accounting
    the runtime statistics consume (pooled warp states ``reset`` one
    instance per warp). Per basic block it is the block's static cost
    (:func:`aggregate_block_cost`): the block lowering folds
    per-instruction charges into these sums so the interpreter performs
    a single statistics update per block executed instead of one per
    instruction. Kernel and yield cycles are kept apart (the
    ``overhead`` flag placed by the vectorizer decides which bucket an
    instruction charges — Fig. 9's categories); a block's ``flops``
    cover its body only, its ``instructions`` the body plus the
    terminator."""

    kernel_cycles: int = added()
    yield_cycles: int = added()
    instructions: int = added()
    flops: int = added()


def aggregate_block_cost(
    block, table: FunctionCostTable
) -> ExecutionStats:
    """Fold ``table``'s per-instruction charges over ``block``."""
    total = ExecutionStats(instructions=len(block.instructions) + 1)
    for instruction in block.instructions:
        cost = table.cost_of(instruction)
        if getattr(instruction, "overhead", False):
            total.yield_cycles += cost.cycles
        else:
            total.kernel_cycles += cost.cycles
        total.flops += cost.flops
    terminator = block.terminator
    if terminator is not None:
        cost = table.cost_of(terminator)
        if getattr(terminator, "overhead", False):
            total.yield_cycles += cost.cycles
        else:
            total.kernel_cycles += cost.cycles
    return total


def _width_of(instruction) -> int:
    target = instruction.dst
    candidates = []
    if target is not None:
        candidates.append(target)
    candidates.extend(
        v for v in instruction.uses() if isinstance(v, VirtualRegister)
    )
    width = 1
    for value in candidates:
        width = max(width, value.width)
    return width


def build_cost_table(
    function: IRFunction, machine: MachineDescription
) -> FunctionCostTable:
    """The static cycle costs of ``function``'s instructions on
    ``machine`` (see :class:`FunctionCostTable`)."""
    pressure = vector_register_pressure(function, machine)
    return FunctionCostTable(
        pressure=pressure,
        spilling=pressure > machine.vector_registers,
        machine=machine,
    )


def scalar_instruction_cycles(
    instruction, machine: MachineDescription
) -> int:
    """Static cycle charge of one scalar-IR instruction.

    Transform-stage profitability models (control-flow melding) price
    candidate rewrites with the same per-instruction charges the
    lowering will later assign, evaluated without spill pressure — the
    scalar function has no vector registers yet."""
    return _instruction_cost(instruction, machine, False).cycles


def divergence_penalty(
    machine: MachineDescription, warp_size: int
) -> int:
    """Modeled overhead of one divergent branch at ``warp_size``.

    When a warp's threads disagree at a branch, the specialization
    yields (status check + switch dispatch on both sub-paths), the
    execution manager runs a re-formation event, and every thread pays
    the per-thread EM bookkeeping before it re-enters a kernel. This
    mirrors the yield/EM charges the interpreter accrues dynamically
    (Fig. 9's categories) without simulating the schedule."""
    return (
        2 * machine.yield_cost
        + machine.switch_cost
        + machine.em_event_cost
        + warp_size * machine.em_per_thread_cost
    )


def _instruction_cost(
    instruction, machine: MachineDescription, spilling: bool
) -> InstructionCost:
    width = _width_of(instruction)
    chunks = machine.vector_chunks(width)
    spill_extra = machine.spill_penalty * chunks if (
        spilling and width > machine.vector_width
    ) else 0

    if isinstance(instruction, FusedMultiplyAdd):
        flops = 2 * width if instruction.dtype.is_float else 0
        return InstructionCost(
            cycles=machine.alu_cost * chunks + spill_extra, flops=flops
        )
    if isinstance(instruction, BinaryOp):
        units = 1
        flops = 0
        if instruction.dtype.is_float:
            units = _FLOAT_UNITS.get(instruction.op, 1)
            flops = width
        return InstructionCost(
            cycles=machine.alu_cost * units * chunks + spill_extra,
            flops=flops,
        )
    if isinstance(instruction, (UnaryOp, Compare, Select, Convert)):
        return InstructionCost(
            cycles=machine.alu_cost * chunks + spill_extra
        )
    if isinstance(instruction, Intrinsic):
        flops = width if instruction.dtype.is_float else 0
        return InstructionCost(
            cycles=machine.intrinsic_cost * chunks + spill_extra,
            flops=flops,
        )
    if isinstance(instruction, (Load, Store)):
        if instruction.space is AddressSpace.local:
            return InstructionCost(cycles=machine.local_memory_cost)
        return InstructionCost(cycles=machine.memory_cost)
    if isinstance(instruction, (VectorLoad, VectorStore)):
        # One access per machine-width chunk (movups-style).
        return InstructionCost(cycles=machine.memory_cost * chunks)
    if isinstance(instruction, AtomicRMW):
        return InstructionCost(cycles=machine.atomic_cost)
    if isinstance(instruction, (ContextRead, ContextWrite)):
        return InstructionCost(cycles=machine.context_cost)
    if isinstance(instruction, (InsertElement, ExtractElement)):
        return InstructionCost(cycles=machine.shuffle_cost)
    if isinstance(instruction, Broadcast):
        return InstructionCost(cycles=machine.shuffle_cost)
    if isinstance(instruction, Reduce):
        steps = max(1, (width - 1).bit_length())
        return InstructionCost(cycles=machine.shuffle_cost * steps + 1)
    if isinstance(instruction, Branch):
        return InstructionCost(cycles=machine.branch_cost)
    if isinstance(instruction, CondBranch):
        return InstructionCost(cycles=machine.branch_cost)
    if isinstance(instruction, Switch):
        return InstructionCost(cycles=machine.switch_cost)
    if isinstance(instruction, Yield):
        return InstructionCost(cycles=machine.yield_cost)
    if isinstance(instruction, (Exit, BarrierTerm)):
        return InstructionCost(cycles=machine.branch_cost)
    return InstructionCost(cycles=machine.alu_cost)
