"""Vectorization of data-parallel scalar kernels (§4, Algorithms 1-4).

Given the scalar IR translation of a PTX kernel, produce a
specialization for warp size ``ws`` in which one execution of each
basic block is computationally equivalent to ``ws`` threads executing
the scalar block:

- **Algorithm 1** (``Vectorize(i, ws)``): vectorizable instructions
  (element-wise arithmetic, compares, selects, conversions,
  transcendental intrinsics) are promoted to vector-typed operators.
  Non-vectorizable instructions (loads, stores, atomics, context
  accesses) are replicated once per lane, with ``extractelement`` /
  ``insertelement`` packing at the scalar/vector boundary (Fig. 3).
  Each is built as one *lane group* (``lane=None``) that stands for its
  copies and counts the extracts and the pack beside them; a load or
  store whose addresses are provably contiguous is a ``contiguous``
  group, priced as one vector access (§4 future work).
- **Algorithm 2**: conditional branches become a predicate *sum* plus a
  three-way switch: uniformly not-taken, uniformly taken, or divergent
  — the divergent case enters a compiler-inserted exit handler.
- **Algorithm 3** (``CreateScheduler``): a scheduler block switches on
  the warp's entry ID and jumps to per-entry handlers that restore live
  state from thread-local memory (a local load group a register).
- **Algorithm 4** (``CreateExits``): exit handlers spill live values to
  thread-local memory (a local store group a register), write each
  thread's resume point (a conditional
  select over the branch targets), and yield to the execution manager
  with a resume status (branch / barrier / exit).

Thread-invariant expression elimination (§6.2) plugs in here: with
``thread_invariant_elimination`` enabled, registers proven uniform by
:mod:`repro.transforms.uniformity` stay scalar (width 1) and their
defining bundles collapse to a single instruction; under static warp
formation the per-lane ``tid.x`` reads are rewritten as ``lane0 + i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Set, Tuple

from ..errors import VectorizationError
from ..ir.basicblock import BasicBlock
from ..ir.function import IRFunction
from ..ir.instructions import (
    AtomicRMW,
    BarrierTerm,
    Branch,
    Broadcast,
    CondBranch,
    ContextRead,
    ContextWrite,
    Exit,
    Load,
    Reduce,
    ResumeStatus,
    Select,
    Store,
    Switch,
    UnaryOp,
    VECTORIZABLE,
    Yield,
)
from ..ir.liveness import LivenessInfo
from ..ir.values import Constant, VirtualRegister
from ..ptx.types import AddressSpace, DataType
from .uniformity import UniformityInfo, analyze_affine, analyze_uniformity


@dataclass
class VectorizeOptions:
    """Configuration of one specialization.

    Attributes
    ----------
    warp_size:
        Number of threads interleaved into the produced function.
    yield_at_branches:
        If True, every (formerly conditional) branch yields to the
        execution manager so threads can re-form wider warps — the
        behaviour of the scalar specialization in Fig. 4(b). If False,
        uniform branches stay inside the kernel and only divergence
        yields (Algorithm 2's switch).
    static_warps:
        Warps are consecutive ``tid.x`` threads from one CTA (§6.2),
        enabling the affine thread-ID rewrite.
    thread_invariant_elimination:
        Keep provably uniform registers scalar (§6.2).
    """

    warp_size: int = 4
    yield_at_branches: bool = False
    static_warps: bool = False
    thread_invariant_elimination: bool = False
    #: Mark replicated loads/stores whose addresses are provably
    #: contiguous across the warp (affine stride == element size) as
    #: contiguous groups, one vector access each — the paper's §4
    #: future work. Requires static warp formation for the tid.x
    #: affinity.
    vector_memory: bool = False


def compute_entry_points(scalar_function: IRFunction) -> Dict[str, int]:
    """Assign resume-point IDs to blocks of the scalar function.

    The numbering must be identical for every specialization of a
    kernel (a thread may yield from the 4-wide kernel and resume in the
    scalar one), so it is derived purely from the scalar function:
    entry block is 0; then, in layout order, the successors of
    conditional branches and of barriers.
    """
    entry_points: Dict[str, int] = {scalar_function.entry_label: 0}

    def add(label: str) -> None:
        if label not in entry_points:
            entry_points[label] = len(entry_points)

    for block in scalar_function.ordered_blocks():
        terminator = block.terminator
        if isinstance(terminator, CondBranch):
            add(terminator.taken)
            add(terminator.fallthrough)
        elif isinstance(terminator, BarrierTerm):
            add(terminator.successor)
    return entry_points


def assign_spill_slots(
    scalar_function: IRFunction,
) -> Tuple[Dict[str, int], int]:
    """Byte offsets (within the per-thread spill area) for every
    register, in deterministic name order, aligned to the value size.
    Returns ``(slots, total_bytes)``."""
    slots: Dict[str, int] = {}
    offset = 0
    registers = sorted(scalar_function.registers(), key=lambda r: r.name)
    for register in registers:
        size = register.dtype.size
        remainder = offset % size
        if remainder:
            offset += size - remainder
        slots[register.name] = offset
        offset += size
    return slots, offset


def _once(analysis):
    """A property running ``analysis`` on the scalar function when it
    is first asked for, and keeping the answer."""
    return cached_property(lambda self: analysis(self.function))


class ScalarAnalyses:
    """What vectorization asks of the *scalar* function. None of it
    depends on the warp size, so one instance serves every width of a
    kernel: the translation cache keeps it beside the scalar IR. Of
    ``options`` only the fields no width changes are read, and the
    function must not be edited once an analysis has run."""

    def __init__(
        self, scalar_function: IRFunction, options: VectorizeOptions
    ):
        self.function = scalar_function
        self.options = options

    liveness = _once(LivenessInfo)
    #: block label -> resume-point ID
    entry_ids = _once(compute_entry_points)
    #: ``(slots, total_bytes)`` of the per-thread spill area
    spill_layout = _once(assign_spill_slots)

    @cached_property
    def uniformity(self) -> UniformityInfo:
        if not self.options.thread_invariant_elimination:
            return UniformityInfo()
        return analyze_uniformity(
            self.function, static_warps=self.options.static_warps
        )

    @cached_property
    def affine_strides(self) -> Dict[str, int]:
        """Register name -> per-lane address stride; empty unless
        vector memory is enabled."""
        options = self.options
        if not (options.vector_memory and options.static_warps):
            return {}
        affinity_base = (
            self.uniformity
            if options.thread_invariant_elimination
            else analyze_uniformity(self.function, static_warps=True)
        )
        return analyze_affine(self.function, affinity_base)


class Vectorizer:
    """Produces one specialization of a scalar kernel function."""

    def __init__(
        self,
        scalar_function: IRFunction,
        options: VectorizeOptions,
        analyses: Optional[ScalarAnalyses] = None,
    ):
        self.scalar = scalar_function
        self.options = options
        self.ws = options.warp_size
        if self.ws < 1:
            raise VectorizationError(
                f"invalid warp size {self.ws}"
            )
        if analyses is None:
            analyses = ScalarAnalyses(scalar_function, options)
        self.liveness = analyses.liveness
        self.uniformity = analyses.uniformity
        self.affine_strides = analyses.affine_strides
        self.entry_ids = analyses.entry_ids
        slots, spill_size = analyses.spill_layout
        suffix = f"w{self.ws}"
        if options.static_warps:
            suffix += ".static"
        if options.thread_invariant_elimination:
            suffix += ".tie"
        if options.vector_memory:
            suffix += ".vmem"
        base = scalar_function.name
        if base.endswith(".scalar"):
            base = base[: -len(".scalar")]
        self.out = IRFunction(name=f"{base}.{suffix}", warp_size=self.ws)
        self.out.source_kernel = scalar_function.source_kernel
        self.out.spill_slots = dict(slots)
        self.out.spill_size = spill_size
        self.out.local_segment_size = scalar_function.local_segment_size
        #: scalar register name -> specialized register
        self.register_map: Dict[str, VirtualRegister] = {}
        #: per block, how many lanes of a vector register, from lane 0,
        #: the block holds (a group's, or ones a group counted
        #: extracting): name -> 1 (a contiguous access's base) or ws
        self._held: Dict[str, int] = {}
        #: per block, the lane groups whose pack nothing has read yet, by
        #: the register they write
        self._unread_packs: Dict[str, object] = {}
        #: labels whose instructions are yield overhead (Fig. 9)
        self._overhead_blocks: Set[str] = set()
        self.block: Optional[BasicBlock] = None

    # -- register mapping --------------------------------------------------

    def map_register(self, register: VirtualRegister) -> VirtualRegister:
        mapped = self.register_map.get(register.name)
        if mapped is None:
            uniform = register.name in self.uniformity.uniform_registers
            width = 1 if uniform else self.ws
            mapped = VirtualRegister(
                name=register.name, dtype=register.dtype, width=width
            )
            self.register_map[register.name] = mapped
        return mapped

    def map_value(self, value):
        """``value`` as an operand that reads the whole register (so a
        pack of it is kept)."""
        if isinstance(value, VirtualRegister):
            if value.name in self._unread_packs:
                self._keep_pack(value.name)
            return self.map_register(value)
        return value

    def _temp(self, dtype: DataType, width: int = 1) -> VirtualRegister:
        return self.out.fresh_register(dtype, width=width, hint="v")

    # -- lane access (the memoized mapping of Algorithm 1) ----------------

    def _extracts(self, value) -> int:
        """The extractelements a lane group reading specialized operand
        ``value`` stands for: the lanes of a vector the block does not
        hold yet, held from then on. Those are extracted from the whole
        register, so its pack is kept."""
        if not isinstance(value, VirtualRegister) or value.width == 1:
            return 0
        missing = self.ws - self._held.get(value.name, 0)
        if missing:
            self._keep_pack(value.name)
            self._held[value.name] = self.ws
        return missing

    def _group(self, instruction, **fields) -> None:
        """Append ``instruction`` as a lane group over its operands,
        specialized (at width 1, as lane 0's copy); a destination's pack
        is kept once something reads it whole."""
        values = [
            self.map_register(value)
            if isinstance(value, VirtualRegister) else value
            for value in instruction.uses()
        ]
        extracts = sum(map(self._extracts, values))
        destination = fields.pop("dst", instruction.dst)
        group = instruction.rebuilt(destination, values)
        group.lane = None if self.ws > 1 else 0
        group.extracts = extracts
        for name, value in fields.items():
            setattr(group, name, value)
        self.block.append(group)
        if destination is not None:
            self._invalidate_lanes(destination)
            self._unread_packs[destination.name] = group
            self._held[destination.name] = self.ws

    def _contiguous(self, instruction, destination=None) -> None:
        """Append ``instruction`` as a contiguous lane group: one vector
        access, which reads lane 0 of the base (an extract where the
        block does not hold it) and moves its data whole — the value
        stored is read whole, the destination is written whole."""
        base = self.map_register(instruction.base)
        extracts = 0
        if base.width > 1 and not self._held.get(base.name):
            self._keep_pack(base.name)
            self._held[base.name] = extracts = 1
        operands = [base, *map(self.map_value, instruction.uses()[1:])]
        group = instruction.rebuilt(destination, operands)
        group.lane, group.extracts, group.contiguous = None, extracts, True
        if destination is not None:
            group.pack = True
            self._invalidate_lanes(destination)
        self.block.append(group)

    def _keep_pack(self, name: str) -> None:
        """Register ``name`` is read whole: a pack of it is kept."""
        pack = self._unread_packs.pop(name, None)
        if pack is not None:
            pack.pack = True

    def _invalidate_lanes(self, register: VirtualRegister) -> None:
        """``register`` is (re)defined: its cached lanes are stale, and
        a pack of it nothing read is never built."""
        self._held.pop(register.name, None)
        self._unread_packs.pop(register.name, None)

    def _keep_live_out_packs(self, scalar_block: BasicBlock) -> None:
        """At the end of a block, keep the packs of the registers a
        successor the block reaches without yielding reads (a spill in
        the block reads the held lanes, a divergent exit handler the
        register); the packs nothing reads stay unbuilt (§4 leaves
        that to dead-code elimination)."""
        unread = self._unread_packs
        if unread and not isinstance(self.block.terminator, Yield):
            live_out = self.liveness.live_out[scalar_block.label]
            for name in live_out.intersection(unread):
                self._keep_pack(name)
        self._unread_packs = {}

    # -- main loop ---------------------------------------------------------

    def run(self) -> IRFunction:
        for block in self.scalar.ordered_blocks():
            self.block = self.out.add_block(block.label)
            self._held = {}
            for instruction in block.instructions:
                self._vectorize_instruction(instruction)
            self._rewrite_terminator(block)
            self._keep_live_out_packs(block)
        self._create_scheduler()
        self._mark_overhead()
        return self.out

    # -- Algorithm 1: instruction vectorization -----------------------------

    def _vectorize_instruction(self, instruction) -> None:
        if isinstance(instruction, VECTORIZABLE):
            self._promote(instruction)
        elif isinstance(instruction, ContextRead):
            self._replicate_context_read(instruction)
        elif isinstance(instruction, ContextWrite):
            self._group(instruction)
        elif isinstance(instruction, Load):
            self._replicate_load(instruction)
        elif isinstance(instruction, Store):
            if self._contiguous_across_warp(instruction):
                self._contiguous(instruction)
            else:
                self._group(instruction)
        elif isinstance(instruction, AtomicRMW):
            self._replicate_atomic(instruction)
        elif isinstance(instruction, Reduce):
            self._vectorize_vote(instruction)
        else:
            raise VectorizationError(
                f"cannot vectorize {instruction!r}"
            )

    def _promote(self, instruction) -> None:
        """Promote a vectorizable instruction (or keep it scalar when
        its destination is uniform — §6.2's scalarization)."""
        destination = self.map_register(instruction.dst)
        map_value = self.map_value
        self.block.append(
            instruction.rebuilt(
                destination, [map_value(v) for v in instruction.uses()]
            )
        )
        if destination.width > 1:
            self._invalidate_lanes(destination)

    def _replicate_context_read(self, instruction: ContextRead) -> None:
        destination = self.map_register(instruction.dst)
        if destination.width == 1:
            self.block.append(instruction.rebuilt(destination, []))
            return
        # Under static warps with TIE, lane i's tid.x is lane 0's + i.
        affine = (
            instruction.field_name == "tid.x"
            and self.options.static_warps
            and self.options.thread_invariant_elimination
        )
        self._group(instruction, dst=destination, affine=affine)

    def _contiguous_across_warp(self, instruction) -> bool:
        """True when the access's per-lane addresses are provably
        ``lane0 + i * element_size`` (affine analysis, §4 future
        work), so one vector access services the warp."""
        if self.ws == 1 or not self.affine_strides:
            return False
        if instruction.space not in (
            AddressSpace.global_,
            AddressSpace.shared,
        ):
            return False
        base = instruction.base
        if not isinstance(base, VirtualRegister):
            return False
        stride = self.affine_strides.get(base.name)
        return stride == instruction.dtype.size

    def _replicate_load(self, instruction: Load) -> None:
        destination = self.map_register(instruction.dst)
        if destination.width > 1 and self._contiguous_across_warp(
            instruction
        ):
            return self._contiguous(instruction, destination)
        if destination.width == 1:
            self.block.append(
                instruction.rebuilt(
                    destination, [self.map_value(instruction.base)]
                )
            )
            return
        self._group(instruction, dst=destination)

    def _replicate_atomic(self, instruction: AtomicRMW) -> None:
        """A lane group, its lanes run in lane order (§4: replicated per
        lane)."""
        if instruction.dst is None:
            return self._group(instruction)
        destination = self.map_register(instruction.dst)
        if destination.width < self.ws:
            raise VectorizationError("atomic destination cannot be uniform")
        self._group(instruction, dst=destination)

    def _vectorize_vote(self, instruction: Reduce) -> None:
        source = self.map_value(instruction.src)
        destination = self.map_register(instruction.dst)
        if self.ws == 1 and destination.width == 1:
            self.block.append(
                Reduce(op=instruction.op, dst=destination, src=source)
            )
            return
        scalar = self._temp(destination.dtype)
        self.block.append(
            Reduce(op=instruction.op, dst=scalar, src=source)
        )
        if destination.width == 1:
            self.block.append(
                UnaryOp(
                    op="mov",
                    dtype=destination.dtype,
                    dst=destination,
                    a=scalar,
                )
            )
        else:
            self.block.append(Broadcast(dst=destination, src=scalar))
            self._invalidate_lanes(destination)

    # -- Algorithms 2 & 4: divergence detection and exit handlers ----------

    def _rewrite_terminator(self, scalar_block: BasicBlock) -> None:
        terminator = scalar_block.terminator
        if isinstance(terminator, Branch):
            self.block.append(Branch(terminator.target))
        elif isinstance(terminator, Exit):
            self.block.append(Yield(status=ResumeStatus.THREAD_EXIT))
        elif isinstance(terminator, BarrierTerm):
            self._emit_barrier_exit(scalar_block, terminator)
        elif isinstance(terminator, CondBranch):
            self._emit_branch_checks(scalar_block, terminator)
        elif isinstance(terminator, Switch):
            raise VectorizationError(
                "switch terminators cannot appear in scalar kernels"
            )
        else:
            raise VectorizationError(
                f"unsupported terminator {terminator!r}"
            )

    def _spill_slot(self, register: VirtualRegister) -> Constant:
        """A register's spill slot: its offset within each thread's
        local memory (user .local variables come first)."""
        slot = self.out.spill_slots[register.name]
        return Constant(self.out.local_segment_size + slot, DataType.u64)

    def _spill_live_out(self, scalar_block: BasicBlock) -> None:
        """Store live-out values to each thread's local spill area
        (Algorithm 4's first step), one local store group a register. A
        vector whose lanes the block already holds stores those, so a
        pack only the spill would read is never built."""
        for register in self.liveness.live_out_registers(scalar_block.label):
            slot = self._spill_slot(register)
            self._group(
                Store(register.dtype, AddressSpace.local, slot, register)
            )

    def _set_resume_points(self, value) -> None:
        """Each lane's resume point: lane k's of ``value``."""
        self.block.append(
            ContextWrite(
                "resume_point", value, None if self.ws > 1 else 0,
                self._extracts(value),
            )
        )

    def _emit_barrier_exit(
        self, scalar_block: BasicBlock, terminator: BarrierTerm
    ) -> None:
        successor_id = self.entry_ids[terminator.successor]
        start = len(self.block.instructions)
        self._spill_live_out(scalar_block)
        self._set_resume_points(Constant(successor_id, DataType.u32))
        self.block.append(Yield(status=ResumeStatus.THREAD_BARRIER))
        self._flag_overhead(self.block, start)

    def _emit_branch_checks(
        self, scalar_block: BasicBlock, terminator: CondBranch
    ) -> None:
        predicate = self.map_value(terminator.predicate)
        taken_id = self.entry_ids[terminator.taken]
        fall_id = self.entry_ids[terminator.fallthrough]

        if self.options.yield_at_branches:
            # Scalar-specialization policy (Fig. 4b): always return to
            # the execution manager so warps can re-form.
            start = len(self.block.instructions)
            self._emit_divergent_exit(
                scalar_block, predicate, taken_id, fall_id, inline=True
            )
            self._flag_overhead(self.block, start)
            return

        uniform_predicate = (
            not isinstance(predicate, VirtualRegister)
            or predicate.width == 1
        )
        if self.ws == 1 or uniform_predicate:
            # A single thread cannot diverge, and a thread-invariant
            # predicate (§6.2) sends every lane the same way: keep the
            # direct conditional branch.
            self.block.append(
                CondBranch(
                    predicate=predicate,
                    taken=terminator.taken,
                    fallthrough=terminator.fallthrough,
                )
            )
            return

        # sum(predicates): 0 = uniformly not taken, ws = uniformly
        # taken, otherwise divergent -> exit handler.
        sum_register = self._temp(DataType.s32)
        self.block.append(
            Reduce(op="add", dst=sum_register, src=predicate)
        )
        exit_label = self.out.fresh_label(f"{scalar_block.label}_exit")
        self.block.append(
            Switch(
                value=sum_register,
                cases={
                    0: terminator.fallthrough,
                    self.ws: terminator.taken,
                },
                default=exit_label,
            )
        )
        saved, saved_held = self.block, self._held
        self.block = self.out.add_block(exit_label)
        self._held = {}
        self._emit_divergent_exit(
            scalar_block, predicate, taken_id, fall_id, inline=False
        )
        self._overhead_blocks.add(exit_label)
        self.block, self._held = saved, saved_held

    def _emit_divergent_exit(
        self,
        scalar_block: BasicBlock,
        predicate,
        taken_id: int,
        fall_id: int,
        inline: bool,
    ) -> None:
        """Algorithm 4 body for a (potentially) divergent branch."""
        self._spill_live_out(scalar_block)
        width = getattr(predicate, "width", 1)
        selected = self._temp(DataType.u32, width=width)
        self.block.append(
            Select(
                dtype=DataType.u32,
                dst=selected,
                a=Constant(taken_id, DataType.u32),
                b=Constant(fall_id, DataType.u32),
                predicate=predicate,
            )
        )
        self._set_resume_points(selected)
        self.block.append(Yield(status=ResumeStatus.THREAD_BRANCH))

    # -- Algorithm 3: scheduler and entry handlers --------------------------

    def _create_scheduler(self) -> None:
        handler_labels: Dict[int, str] = {}
        for label, entry_id in self.entry_ids.items():
            if entry_id == 0:
                handler_labels[0] = label
                self.out.entry_points[0] = label
                self.out.restore_counts[0] = 0
                continue
            handler_label = self.out.fresh_label(f"{label}_entry")
            handler = self.out.add_block(handler_label)
            self.block = handler
            self._held = {}
            self._emit_restores(label)
            handler.append(Branch(label))
            handler_labels[entry_id] = handler_label
            self.out.entry_points[entry_id] = handler_label
            self.out.restore_counts[entry_id] = len(
                self.liveness.live_in[label]
            )
            self._overhead_blocks.add(handler_label)

        scheduler = self.out.prepend_block(
            self.out.fresh_label("scheduler")
        )
        self._overhead_blocks.add(scheduler.label)
        self.block = scheduler
        entry_value = self._temp(DataType.u32)
        scheduler.append(
            ContextRead(
                field_name="resume_point",
                dtype=DataType.u32,
                dst=entry_value,
                lane=0,
            )
        )
        scheduler.append(
            Switch(
                value=entry_value,
                cases={
                    entry_id: label
                    for entry_id, label in handler_labels.items()
                },
                default=handler_labels[0],
            )
        )

    def _flag_overhead(self, block: BasicBlock, start: int) -> None:
        for instruction in block.instructions[start:]:
            instruction.overhead = True
        if block.terminator is not None:
            block.terminator.overhead = True

    def _mark_overhead(self) -> None:
        """Flag every instruction belonging to yield machinery so the
        cost model can attribute its cycles separately (Fig. 9)."""
        for label in self._overhead_blocks:
            block = self.out.blocks[label]
            self._flag_overhead(block, 0)

    def _emit_restores(self, label: str) -> None:
        """One local load group per live-in register of ``label``, each
        lane from its own spill area, packing the register (a width-1
        one: lane 0's load)."""
        for register in self.liveness.live_in_registers(label):
            mapped = self.map_register(register)
            wide = mapped.width > 1
            self.block.append(Load(
                register.dtype, mapped, AddressSpace.local,
                self._spill_slot(register), lane=None if wide else 0,
                pack=wide,
            ))


def vectorize_kernel(
    scalar_function: IRFunction,
    options: VectorizeOptions,
    analyses: Optional[ScalarAnalyses] = None,
) -> IRFunction:
    """Produce the ``options.warp_size`` specialization of a scalar
    kernel function; ``analyses`` (of the same function and options)
    saves recomputing them for each width."""
    return Vectorizer(scalar_function, options, analyses).run()


__all__ = [
    "ScalarAnalyses",
    "VectorizeOptions",
    "Vectorizer",
    "assign_spill_slots",
    "compute_entry_points",
    "vectorize_kernel",
]
