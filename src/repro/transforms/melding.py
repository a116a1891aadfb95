"""Control-flow melding: merge the arms of divergent regions (DARM).

The yield-on-diverge execution model makes branch divergence the
dominant modeled cost on divergence-heavy kernels: every divergent
branch costs a yield round trip plus an execution-manager re-formation
event (Fig. 9). DARM ("Control-Flow Melding for SIMT Thread Divergence
Reduction") observes that the two arms of a divergent branch are often
*similar* — same loads, same multiplies, different operands — and melds
them so both paths execute as one warp. Melding a region whose arms
share nothing is the predication-style conditional data flow the paper
contrasts yield-on-diverge with (§7, Karrenberg/Shin): both arms run on
every lane, and the divergence site is gone.

This pass implements DARM's pipeline on the scalar IR, before
vectorization (so every width specialization sees the melded control
structure):

1. **Region detection.** A meldable region is a diamond or triangle: a
   conditional branch whose predicate the uniformity analysis cannot
   prove uniform, with single-predecessor straight-line arms branching
   to a common join. A triangle's other successor is the join itself:
   an empty arm.
2. **Alignment.** The arms' instruction sequences are aligned with
   Needleman-Wunsch sequence alignment. Two instructions may pair when
   their opcode/type signatures are compatible; the pair's score is the
   cycle charge saved by executing it once, minus the selects needed to
   reconcile differing operands. Side-effecting instructions (loads,
   stores, atomics) participate *only* as pairs — they must find a
   compatible partner in the other arm or the region is rejected,
   because unpaired memory operations would execute speculatively on
   the wrong path. Against a triangle's empty arm nothing pairs, so a
   memory operation in its one arm rejects the region.
3. **Predicated rewrite.** Aligned pairs execute once, with a
   ``select`` per differing operand choosing between the taken and
   fallthrough arm's value; a melded memory operation therefore issues
   exactly the access the executing thread's arm would have issued —
   same address, same value — so guest memory, trap coordinates and
   sanitizer findings are preserved. Unpaired *pure* instructions
   execute speculatively into fresh registers. Register state merges
   at the join with one select per register either arm defines and
   something past the join reads.
4. **Profitability.** The rewrite is applied only when the cost model
   predicts the melded straight line cheaper than the divergent
   original at the configured maximum warp width:
   ``melded < branch + p_div * (both arms + divergence_penalty)
   + (1 - p_div) * avg(arm)`` with ``p_div = 1 - 2^(1-w)`` (the chance
   a w-thread warp of independent threads actually splits). At width 1
   nothing ever melds — there is no divergence to avoid.

Every candidate region produces a :class:`MeldDecision` whether melded
or rejected; the :class:`MeldReport` is attached to the function (and
recorded by the translation cache) so launches can surface meld
activity on ``LaunchStatistics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.cfg import ControlFlowGraph
from ..ir.function import IRFunction
from ..ir.instructions import (
    VECTORIZABLE,
    AtomicRMW,
    Branch,
    CondBranch,
    ContextRead,
    Load,
    Select,
    Store,
)
from ..ir.liveness import LivenessInfo
from ..ir.values import VirtualRegister
from ..machine.costmodel import divergence_penalty, scalar_instruction_cycles
from ..machine.descriptor import MachineDescription
from .block_merge import merge_blocks
from .uniformity import analyze_uniformity

#: Side-effecting / faulting instructions: meldable, but only as an
#: aligned pair (each thread then issues exactly its own arm's access).
_ALIGN_ONLY = (Load, Store, AtomicRMW)

#: Everything a meldable arm may hold. What is not ``_ALIGN_ONLY`` is
#: pure and may stay unpaired, running speculatively on the not-taken
#: path.
_MELDABLE = VECTORIZABLE + _ALIGN_ONLY + (ContextRead,)

#: Arms longer than this are never considered (alignment is quadratic).
DEFAULT_MAX_ARM_INSTRUCTIONS = 48

#: DP bonus forcing side-effecting instructions to pair when any
#: compatible partner exists (their alignment is a correctness
#: precondition, not a profit decision; real cycles are re-estimated
#: from the traceback).
_ALIGN_BONUS = 1.0e6


@dataclass
class MeldDecision:
    """Outcome for one candidate region (``taken`` or ``fallthrough``
    is ``join`` for a triangle)."""

    branch_block: str
    taken: str
    fallthrough: str
    join: str
    melded: bool
    reason: str
    aligned_pairs: int = 0
    #: predicted cycles per warp execution of the region
    est_divergent_cycles: float = 0.0
    est_melded_cycles: float = 0.0

    @property
    def predicted_saving(self) -> float:
        if not self.melded:
            return 0.0
        return self.est_divergent_cycles - self.est_melded_cycles


@dataclass
class MeldReport:
    """Per-function record of every meld decision."""

    function: str
    warp_size: int
    decisions: List[MeldDecision] = field(default_factory=list)

    @property
    def melded_regions(self) -> int:
        return sum(1 for d in self.decisions if d.melded)

    @property
    def rejected_regions(self) -> int:
        return sum(1 for d in self.decisions if not d.melded)

    @property
    def predicted_saving(self) -> float:
        return sum(d.predicted_saving for d in self.decisions)


# ---------------------------------------------------------------------------
# Compatibility signatures
# ---------------------------------------------------------------------------


def _signature(instruction) -> Optional[tuple]:
    """Opcode/type compatibility class; ``None`` = never meldable."""
    if not isinstance(instruction, _MELDABLE):
        return None
    # ctx.clock observes the schedule itself; melding changes the
    # schedule, so regions reading it are left alone.
    if isinstance(instruction, ContextRead) and (
        instruction.field_name == "clock"
    ):
        return None
    return instruction.signature()


def _value_dtype(value):
    return getattr(value, "dtype", None)


def _values_equal(a, b) -> bool:
    """Conservative static equality of two operand values."""
    if isinstance(a, VirtualRegister) and isinstance(b, VirtualRegister):
        return a.name == b.name
    if type(a) is type(b):
        try:
            return bool(a == b)
        except Exception:
            return False
    return False


# ---------------------------------------------------------------------------
# Region detection
# ---------------------------------------------------------------------------


def _arm_shape_ok(
    block: BasicBlock, join: str, cfg: ControlFlowGraph, limit: int
) -> bool:
    if len(cfg.predecessors.get(block.label, [])) != 1:
        return False
    if not isinstance(block.terminator, Branch):
        return False
    if block.terminator.target != join:
        return False
    return len(block.instructions) <= limit


def _match_region(
    function: IRFunction,
    cfg: ControlFlowGraph,
    block: BasicBlock,
    terminator: CondBranch,
    limit: int,
) -> Optional[Tuple[Optional[BasicBlock], Optional[BasicBlock], str]]:
    """Single-entry/single-exit divergent diamond or triangle, or
    ``None``. A triangle's missing arm (the successor that *is* the
    join) comes back as ``None``."""
    if terminator.taken == terminator.fallthrough:
        return None
    taken = function.blocks.get(terminator.taken)
    fallthrough = function.blocks.get(terminator.fallthrough)
    if taken is None or fallthrough is None:
        return None
    targets = [
        arm.terminator.target if isinstance(arm.terminator, Branch) else None
        for arm in (taken, fallthrough)
    ]
    if targets[0] is not None and targets[0] == targets[1]:
        join = targets[0]
    elif targets[0] == fallthrough.label:
        join = fallthrough.label
    elif targets[1] == taken.label:
        join = taken.label
    else:
        return None
    if join == block.label:
        return None
    arms = [arm if arm.label != join else None for arm in (taken, fallthrough)]
    if not all(
        _arm_shape_ok(arm, join, cfg, limit) for arm in arms if arm
    ):
        return None
    return arms[0], arms[1], join


def _meldable(instruction) -> bool:
    return _signature(instruction) is not None


# ---------------------------------------------------------------------------
# Alignment (Needleman-Wunsch over compatibility scores)
# ---------------------------------------------------------------------------


def _pair_benefit(
    left, right, machine: MachineDescription
) -> Optional[float]:
    """Cycles saved by melding ``left``/``right`` into one instruction,
    or ``None`` when the pair is incompatible."""
    signature = _signature(left)
    if signature is None or signature != _signature(right):
        return None
    left_ops = left.uses()
    right_ops = right.uses()
    if len(left_ops) != len(right_ops):
        return None
    selects = 0
    for a, b in zip(left_ops, right_ops):
        if _value_dtype(a) != _value_dtype(b):
            return None
        if not _values_equal(a, b):
            selects += 1
    saved = scalar_instruction_cycles(left, machine)
    return float(saved - machine.alu_cost * selects)


@dataclass
class _Alignment:
    """Traceback of the DP: ordered pair/gap plan over both arms."""

    #: ("pair", l, r) | ("left", l, None) | ("right", None, r)
    plan: List[Tuple[str, Optional[int], Optional[int]]]
    pairs: int


def _align(
    left: List[object], right: List[object], machine: MachineDescription
) -> _Alignment:
    n, m = len(left), len(right)
    score = [[0.0] * (m + 1) for _ in range(n + 1)]
    move = [[0] * (m + 1) for _ in range(n + 1)]  # 1=pair 2=left 3=right
    for i in range(1, n + 1):
        move[i][0] = 2
    for j in range(1, m + 1):
        move[0][j] = 3
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            best = score[i - 1][j]
            best_move = 2
            if score[i][j - 1] > best:
                best = score[i][j - 1]
                best_move = 3
            benefit = _pair_benefit(left[i - 1], right[j - 1], machine)
            if benefit is not None:
                if isinstance(left[i - 1], _ALIGN_ONLY):
                    benefit += _ALIGN_BONUS
                if benefit > 0:
                    candidate = score[i - 1][j - 1] + benefit
                    if candidate > best:
                        best = candidate
                        best_move = 1
            score[i][j] = best
            move[i][j] = best_move
    plan: List[Tuple[str, Optional[int], Optional[int]]] = []
    i, j = n, m
    while i > 0 or j > 0:
        step = move[i][j]
        if step == 1:
            i -= 1
            j -= 1
            plan.append(("pair", i, j))
        elif step == 2:
            i -= 1
            plan.append(("left", i, None))
        else:
            j -= 1
            plan.append(("right", None, j))
    plan.reverse()
    return _Alignment(
        plan=plan, pairs=sum(1 for kind, _, _ in plan if kind == "pair")
    )


# ---------------------------------------------------------------------------
# Profitability
# ---------------------------------------------------------------------------


def _estimate(
    left: List[object],
    right: List[object],
    alignment: _Alignment,
    join_registers: int,
    machine: MachineDescription,
    warp_size: int,
) -> Tuple[float, float]:
    """(divergent, melded) predicted cycles per warp execution."""
    cost_left = sum(scalar_instruction_cycles(i, machine) for i in left)
    cost_right = sum(scalar_instruction_cycles(i, machine) for i in right)
    if warp_size <= 1:
        p_div = 0.0
    else:
        p_div = 1.0 - 2.0 ** (1 - warp_size)
    divergent = (
        machine.branch_cost
        + p_div
        * (cost_left + cost_right + divergence_penalty(machine, warp_size))
        + (1.0 - p_div) * 0.5 * (cost_left + cost_right)
    )
    melded = 0.0
    for kind, l_index, r_index in alignment.plan:
        if kind == "pair":
            melded += scalar_instruction_cycles(left[l_index], machine)
            for a, b in zip(
                left[l_index].uses(), right[r_index].uses()
            ):
                if not _values_equal(a, b):
                    melded += machine.alu_cost
        elif kind == "left":
            melded += scalar_instruction_cycles(left[l_index], machine)
        else:
            melded += scalar_instruction_cycles(right[r_index], machine)
    melded += machine.alu_cost * join_registers
    return divergent, melded


# ---------------------------------------------------------------------------
# Rewrite
# ---------------------------------------------------------------------------


class _ArmState:
    """Renames and final values of one arm during the rewrite."""

    def __init__(self):
        self.renames: Dict[str, object] = {}
        #: original name -> (original register, final value)
        self.final: Dict[str, Tuple[VirtualRegister, object]] = {}

    def subst(self, value):
        if isinstance(value, VirtualRegister):
            return self.renames.get(value.name, value)
        return value


def _apply_meld(
    function: IRFunction,
    block: BasicBlock,
    terminator: CondBranch,
    arms: Tuple[Optional[BasicBlock], Optional[BasicBlock]],
    join: str,
    alignment: _Alignment,
    live_at_join: set,
) -> None:
    predicate = terminator.predicate
    block.terminator = None
    out = block.instructions
    left_state = _ArmState()
    right_state = _ArmState()
    left, right = (arm.instructions if arm else [] for arm in arms)

    def fresh_like(register: VirtualRegister) -> VirtualRegister:
        return function.fresh_register(
            register.dtype, width=register.width, hint="meld"
        )

    def emit_gap(instruction, state: _ArmState) -> None:
        operands = [state.subst(v) for v in instruction.uses()]
        target = instruction.dst
        dst = None
        if target is not None:
            dst = fresh_like(target)
            state.renames[target.name] = dst
            state.final[target.name] = (target, dst)
        out.append(instruction.rebuilt(dst, operands))

    def emit_pair(l_instruction, r_instruction) -> None:
        l_ops = [left_state.subst(v) for v in l_instruction.uses()]
        r_ops = [right_state.subst(v) for v in r_instruction.uses()]
        merged: List[object] = []
        for a, b in zip(l_ops, r_ops):
            if _values_equal(a, b):
                merged.append(a)
                continue
            selected = function.fresh_register(
                _value_dtype(a), width=getattr(a, "width", 1), hint="meld"
            )
            out.append(
                Select(
                    dtype=_value_dtype(a), dst=selected,
                    a=a, b=b, predicate=predicate,
                )
            )
            merged.append(selected)
        l_target = l_instruction.dst
        r_target = r_instruction.dst
        dst = None
        if l_target is not None:
            dst = fresh_like(l_target)
            left_state.renames[l_target.name] = dst
            left_state.final[l_target.name] = (l_target, dst)
        if r_target is not None:
            if dst is None:
                dst = fresh_like(r_target)
            right_state.renames[r_target.name] = dst
            right_state.final[r_target.name] = (r_target, dst)
        out.append(l_instruction.rebuilt(dst, merged))

    for kind, l_index, r_index in alignment.plan:
        if kind == "pair":
            emit_pair(left[l_index], right[r_index])
        elif kind == "left":
            emit_gap(left[l_index], left_state)
        else:
            emit_gap(right[r_index], right_state)

    # Merge register state at the join: one select per register either
    # arm defines and something past the join reads (what the other
    # registers hold is never read), writing the *original* register.
    # A join write may target the branch predicate's own register, so
    # that one is ordered last (all other selects must still read the
    # old value).
    defined = sorted(
        (set(left_state.final) | set(right_state.final)) & live_at_join
    )
    predicate_name = (
        predicate.name if isinstance(predicate, VirtualRegister) else None
    )
    defined.sort(key=lambda name: name == predicate_name)
    for name in defined:
        register, left_value = left_state.final.get(name, (None, None))
        fall_register, right_value = right_state.final.get(
            name, (None, None)
        )
        register = register or fall_register
        out.append(
            Select(
                dtype=register.dtype,
                dst=register,
                a=left_value if left_value is not None else register,
                b=right_value if right_value is not None else register,
                predicate=predicate,
            )
        )
    block.append(Branch(join))
    function.remove_blocks(arm.label for arm in arms if arm)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def meld_function(
    function: IRFunction,
    machine: MachineDescription,
    warp_size: int,
    max_arm_instructions: int = DEFAULT_MAX_ARM_INSTRUCTIONS,
) -> MeldReport:
    """Meld profitable divergent diamonds and triangles of a *scalar*
    IR function.

    Iterates to a fixed point (melding an inner region can straighten
    the arm of an outer one); the report of every decision is also
    attached to the function as ``function.meld_report``."""
    report = MeldReport(
        function=getattr(function, "name", "?"), warp_size=warp_size
    )
    rejected: set = set()
    changed = True
    while changed:
        changed = False
        info = analyze_uniformity(function)
        cfg = ControlFlowGraph(function)
        for block in function.ordered_blocks():
            terminator = block.terminator
            if not isinstance(terminator, CondBranch):
                continue
            if block.label in rejected:
                continue
            if info.is_uniform(terminator.predicate):
                continue  # uniform branches never diverge a warp
            candidate = _match_region(
                function, cfg, block, terminator, max_arm_instructions
            )
            if candidate is None:
                continue
            *arms, join = candidate
            decision = MeldDecision(
                branch_block=block.label,
                taken=terminator.taken,
                fallthrough=terminator.fallthrough,
                join=join,
                melded=False,
                reason="",
            )
            left, right = (arm.instructions if arm else [] for arm in arms)
            if not all(_meldable(i) for i in left + right):
                decision.reason = "unsupported-instruction"
                rejected.add(block.label)
                report.decisions.append(decision)
                continue
            alignment = _align(left, right, machine)
            # Paired accesses issue each thread's own; an unpaired one
            # (every access of a triangle's arm) would be speculative.
            if any(
                isinstance(
                    left[l] if kind == "left" else right[r], _ALIGN_ONLY
                )
                for kind, l, r in alignment.plan
                if kind != "pair"
            ):
                decision.reason = "unaligned-memory-op"
                rejected.add(block.label)
                report.decisions.append(decision)
                continue
            join_registers = len(
                {
                    instruction.dst.name
                    for instruction in left + right
                    if instruction.dst is not None
                }
            )
            est_divergent, est_melded = _estimate(
                left, right, alignment, join_registers, machine, warp_size
            )
            decision.aligned_pairs = alignment.pairs
            decision.est_divergent_cycles = est_divergent
            decision.est_melded_cycles = est_melded
            if est_melded >= est_divergent:
                decision.reason = "unprofitable"
                rejected.add(block.label)
                report.decisions.append(decision)
                continue
            _apply_meld(
                function, block, terminator, arms, join, alignment,
                LivenessInfo(function).live_in[join],
            )
            decision.melded = True
            decision.reason = "profitable"
            report.decisions.append(decision)
            # Straighten so a nested region's outer arms become
            # single blocks for the next round.
            merge_blocks(function)
            changed = True
            break
    function.meld_report = report
    return report
