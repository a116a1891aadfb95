"""Batched execution: the second printer of the one executor.

The sequential path runs one warp at a time; where the execution
manager sees enough same-entry-point warps waiting (``MIN_BATCH_WARPS``)
and the record of earlier batches does not refuse, :class:`ArrayBackend`
— the executor every ``Device`` builds — runs *all of them at once*.
When a batch first reaches a basic block, :class:`_BatchPrinter` prints
the block a second time from the interpreter's one opcode table
(``_EMITTERS``): one Python function over all warps of the batch, in
which a register is a ``(B,)`` array (one value per warp), a
``(B, ws)`` array (one vector per warp) or, where only constants and
constant-address loads feed it, one numpy scalar; loads and stores
become gather/scatter on typed views of the arena, and control flow
stays in the batched region only while it is *uniform* across the
batch. The points where control leaves the region are explicit exits:

- a Yield/Exit terminator ends the batch with one status for all warps
  (every warp took the same exit handler, so one batched walk modeled
  exactly ``n_warps`` sequential executions);
- a divergent CondBranch/Switch, or a successor block the printer
  declines (``%clock``, a per-lane branch predicate or address, a
  barrier, the vector memory operations only static formation — which
  never batches — emits), hands each warp a
  :class:`~repro.machine.interpreter.Continuation` and the sequential
  path finishes it — correctness is inherited, the batched region only
  ever *accelerates* uniform prefixes.

Costs are not recomputed: the batched walk charges the same per-block
aggregates (``ExecutableFunction.block_cost``) the sequential path
charges, once per block, and each warp in the batch absorbs an
identical copy — so every modeled statistic is bit-identical to
sequential execution. Asking for a block's cost generates no
sequential code for it: a block that only ever runs batched is never
lowered for the sequential path.

Known deviation: within one batched block, an instruction's memory
accesses complete for *all* warps before the next instruction runs.
Programs where warps race on shared addresses can observe a different
(but equally legal) interleaving than the sequential schedule — and
whether a block runs batched depends on how many warps wait and on
what earlier batches from its entry point did (admission, below), so
also on the launch history; such programs are racy on real hardware
too. Atomics therefore disable the batched lowering for the whole
function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..ir.instructions import (
    AtomicRMW,
    Broadcast,
    CondBranch,
    ContextWrite,
    ExtractElement,
    Reduce,
    Switch,
)
from ..ir.values import Constant
from ..ptx.types import AddressSpace
from .interpreter import (
    _CONTEXT_COORDINATES,
    _DEADLINE_CHECK_STRIDE,
    _REDUCE_IMPL,
    Continuation,
    ExecutableFunction,
    ExecutionStats,
    Interpreter,
    _BlockEmitter,
    _BlockTable,
    _code,
    _locate_fault,
    guest_errstate,
)
from .memory import _NULL_GUARD


class _Unsupported(ExecutionError):
    """Raised by the batch printer for an instruction it has no batched
    form for; ``array_blocks`` caches the absence and the sequential
    path executes the block."""


# ---------------------------------------------------------------------------
# Batched machine state
# ---------------------------------------------------------------------------


class _BatchState:
    """Register file and context plumbing for one batched region walk
    (what ``_WarpState`` is to one warp).

    ``regs[slot]`` holds ``None`` (unwritten) or what a printed block
    assigned: a ``(B,)`` array, a ``(B, width)`` array or a numpy
    scalar shared by every warp.
    """

    __slots__ = (
        "size", "regs", "param_base", "contexts", "warp_ids", "_cached",
    )

    def __init__(self, executable, warps, param_base):
        self.size = len(warps)
        self.regs: List[object] = [None] * executable.register_count
        self.param_base = param_base
        #: Per warp, the tuple of thread contexts (lane-indexed).
        self.contexts = [warp.contexts for warp in warps]
        self.warp_ids = np.array(
            [warp.warp_id for warp in warps], dtype=np.int64
        )
        self._cached: Dict[str, np.ndarray] = {}

    def per_thread(self, attribute: str, axis: Optional[int] = None):
        """``(B, ws)`` int64 array of a context attribute (of its
        component ``axis``): read at the field's rank (a launch's from
        the first context, a CTA's from lane 0 of each warp), broadcast
        to a read-only view that every lane's read shares."""
        cached = self._cached.get(attribute)
        if cached is None:
            rank, tail = _FIELD_RANKS[attribute]
            warps = self.contexts[: 1 if rank == _UNIFORM else None]
            if rank != _LANE:
                warps = [lanes[:1] for lanes in warps]
            values = map(attrgetter(attribute), chain.from_iterable(warps))
            values = np.fromiter(
                chain.from_iterable(values) if tail else values, np.int64
            ).reshape((len(warps), len(warps[0])) + tail)
            cached = self._cached[attribute] = np.broadcast_to(
                values, (self.size, len(self.contexts[0])) + tail
            )
        return cached if axis is None else cached[:, :, axis]


# ---------------------------------------------------------------------------
# The batch printer
# ---------------------------------------------------------------------------

#: Rank of a batched value, known per local while a block is printed:
#: one numpy scalar for every warp (only constants and constant-address
#: loads fed it; numpy broadcasts it where it meets the batch axis),
#: one value per warp ``(B,)``, one per lane ``(B, ws)``.
_UNIFORM, _WARP, _LANE = 0, 1, 2

#: Per context field a batch reads: its rank (a batch never spans
#: launches; each of its warps lies in one CTA) and its shape per thread.
_FIELD_RANKS = {
    "ntid": (_UNIFORM, (3,)), "nctaid": (_UNIFORM, (3,)),
    "ctaid": (_WARP, (3,)), "shared_base": (_WARP, ()),
    "tid": (_LANE, (3,)), "local_base": (_LANE, ()),
}


class _BatchPrinter(_BlockEmitter):
    """Prints a block as ``block(state)`` over every warp of a batch.

    What an instruction computes comes from :class:`_BlockEmitter`;
    this printer decides the layout: the rank of every local is static
    (from the IR: a live-in register has the rank of its width, a
    result the highest rank among its operands), so a per-warp operand
    meeting a per-lane one is printed with its broadcast axis
    (``r5[:, None]``) and nothing is decided per execution. The
    function returns the next label, a resume status, one label per
    warp where the terminator's operand is per warp and the warps
    differ, or ``False`` from its first lines — before anything ran —
    when a live-in vector register holds a per-warp value (a converted
    constant from another block): the batch then leaves at the block's
    entry, as it does at a block the printer declines
    (:class:`_Unsupported`).
    """

    loaded_flag = "DATA[{}] != 0"

    def __init__(self, executable, block, namespace: dict):
        super().__init__(executable, block, namespace, lean=True)
        #: Live-in registers are read (a 0-d value given its batch
        #: axis, an unwritten register its typed zeros) once, here.
        self.header = [
            "def block(state):", "    regs = state.regs", "    B = state.size"
        ]
        #: slot -> rank of the register's local
        self.ranks: Dict[int, int] = {}
        #: rank of what the instruction being printed computes
        self.rank = _UNIFORM

    def instruction(self, index: int, instruction) -> None:
        self.rank = max(map(self.rank_of, instruction.uses()), default=_UNIFORM)
        super().instruction(index, instruction)

    # -- how a batch's values are laid out ----------------------------------

    def rank_of(self, value) -> int:
        slot = self.slot(value)
        if slot is None:
            return _UNIFORM
        return self.ranks.get(slot, _LANE if value.width > 1 else _WARP)

    def live_in(self, name: str, slot: int, value) -> None:
        code = _code(value.dtype.numpy_dtype)
        if value.width > 1:
            shape, other = self.shape(value.width), f"{name}.ndim != 2: return False"
        else:
            shape = "B"
            other = f"not {name}.ndim: {name} = regs[{slot}] = np.full(B, {name})"
        self.header += [
            f"    {name} = regs[{slot}]",
            f"    if {name} is None: {name} = regs[{slot}] = "
            f"np.zeros({shape}, dtype=W_{code})",
            f"    elif {other}",
        ]

    def aligned(self, name: str, value) -> str:
        if self.rank == _LANE and self.rank_of(value) == _WARP:
            return f"{name}[:, None]"
        return name

    def operand(self, value) -> str:
        return self.aligned(self.raw(value), value)

    def typed(self, value, dtype) -> Tuple[str, bool]:
        name, exact = super().typed(value, dtype)
        return self.aligned(name, value), exact

    def carries(self, name: str, value, code: str) -> str:
        return f"{name}.dtype is W_{code}"

    def define(
        self, register, expression, dtype=None, exact=False, vector=False
    ) -> None:
        if self.rank == _LANE and register.width == 1:
            raise _Unsupported("a per-lane value in a scalar register")
        super().define(register, expression, dtype, exact, vector)
        self.ranks[self.slots[register.name]] = _LANE if vector else self.rank

    def array_of(self, inst, *operands) -> bool:
        return self.rank > _UNIFORM and self.rank == max(
            map(self.rank_of, operands)
        )

    def shape(self, width: int) -> str:
        return f"(B, {width})"

    def counted(self, accesses: int) -> str:
        return "B" if accesses == 1 else f"{accesses} * B"

    def expand(self, name: str, rank: int, width: int, wanted) -> str:
        """``t``: a fresh ``(B, width)`` array every lane of which
        holds the per-warp (or uniform) value ``name``."""
        self.emit(f"t = np.empty({self.shape(width)}, dtype=W_{_code(wanted)})")
        self.emit(f"t[...] = {name}" + "[:, None]" * (rank == _WARP))
        self.rank = _LANE
        return "t"

    def splat(self, name: str, width: int, wanted) -> str:
        if self.rank == _LANE:
            return name
        return self.expand(name, self.rank, width, wanted)

    def int_list(self, value) -> str:
        """Per-warp operand as a list of Python ints."""
        known, exact = self.known.get(self.slot(value), (None, False))
        values = f"{self.raw(value)}.tolist()"
        if exact and known.kind in "iu":
            return values
        return f"list(map(int, {values}))"

    # -- memory: the inline template, over one address or ``B`` ---------------

    def integer(self, value) -> str:
        rank = self.rank_of(value)
        if rank == _UNIFORM:
            return super().integer(value)
        if rank == _LANE:
            raise _Unsupported("a per-lane address")
        slot = self.slots[value.name]
        return self.bind(f"i{slot}", f"{self.raw(value)}.astype(W_i8)", slot)

    def segment_base(self, segment: str, lane: Optional[int]) -> str:
        """Every warp's segment base of lane ``lane``, ``(B,)``; of a
        lane group (``lane`` None) every lane's, ``(B, w)``."""
        bases = f"state.per_thread({segment + '_base'!r})"
        if lane is None:
            self.rank = _LANE
            return self.bind(f"{segment}_bases", bases)
        self.rank = _WARP  # every warp its own segment
        return self.bind(f"{segment}_base{lane}", f"{bases}[:, {lane}]")

    def address(self, inst) -> None:
        """``a``: one Python int when every warp accesses the same
        address, else ``(B,)`` int64."""
        self.rank = self.rank_of(inst.base)
        super().address(inst)

    def widen(self) -> None:
        """Give a uniform address its batch axis: every warp's access
        lands there, in order."""
        if self.rank == _UNIFORM:
            self.emit("a = np.full(B, a)")
            self.rank = _WARP

    def bounds(self, size) -> None:
        """:meth:`MemorySystem._check_batch` inline: the extremes
        decide (the union of the addresses bounds the highest from
        above, and its low bits are the alignment of all of them), and
        only a batch with an address out looks for the first one."""
        if self.rank == _UNIFORM:
            return super().bounds(size)
        axis = ", None" * (self.rank == _LANE)  # a lane group's (B, w)
        self.emit(f"o = int(union(a{axis}))")
        self.emit(
            f"if lowest(a{axis}) < {_NULL_GUARD} or o + {size} > "
            f"{self.executable.target.memory.size}: "
            f"memory._check_batch(a, {size})"
        )

    @property
    def low(self) -> str:
        return "a" if self.rank == _UNIFORM else "o"

    @property
    def unaligned(self) -> Tuple[str, str]:
        if self.rank == _UNIFORM:
            return super().unaligned
        return "gather_unaligned", "scatter_unaligned"

    def load(self, inst) -> None:
        # From one address for all warps, one guest load serves them;
        # and the parameter segment is read-only for a launch, so the
        # same read again in the block is the value already here.
        accesses = 1 if inst.lane is not None else self.executable.warp_size
        if inst.space is not AddressSpace.param or not isinstance(
            inst.base, Constant
        ):
            if inst.lane is not None:
                return super().load(inst)
            address = self.group_address(inst)
            expression = self.inline_load(inst, address, accesses)
            return self.grouped(inst, expression, _LANE)
        name = f"p{inst.base.value + inst.offset}_{inst.dtype.name}"
        if name in self.bound:
            self.emit(f"memory.load_count += {self.counted(accesses)}")
            self.rank = _UNIFORM
        else:
            self.address(inst)
            self.bind(name, self.inline_load(inst, accesses=accesses))
        if inst.lane is None:
            return self.grouped(inst, name, _UNIFORM)
        self.define(inst.dst, name, *self.result(inst.dtype, True))

    guest_load = _BlockEmitter.inline_load

    def store(self, inst) -> None:
        if inst.lane is None:
            address = self.group_address(inst)
            value = self.operand(inst.value)
            exact = self.exactly(inst.value, inst.dtype.numpy_dtype)
            accesses = self.executable.warp_size
            return self.inline_store(inst, value, exact, address, accesses)
        if self.rank_of(inst.value) == _LANE:
            raise _Unsupported("a vector operand of a scalar store")
        super().store(inst)

    # -- lane groups: one (B, w) access --------------------------------------

    def group_address(self, inst) -> str:
        """The ``(B, w)`` addresses of a lane group's accesses,
        warp-major (so a scatter's last writer is the last warp's last
        lane): ``a``, or the unchecked expression of those the frame
        proves (:meth:`framed`)."""
        framed = self.framed(inst)
        if framed is not None:
            return framed
        base, width = inst.base, self.executable.warp_size
        rank = self.rank_of(base)
        if rank == _LANE:
            slot = self.slots[base.name]
            term = self.bind(f"i{slot}", f"{self.raw(base)}.astype(W_i8)", slot)
        else:
            term = self.integer(base) + "[:, None]" * (rank == _WARP)
        if inst.offset:
            term = f"{term} + {inst.offset}"
        space = inst.space
        if space is AddressSpace.param:
            term = f"{self.bind('param_base', 'state.param_base')} + {term}"
        elif space in (AddressSpace.shared, AddressSpace.local):
            term = f"{self.segment_base(space.value, None)} + {term}"
            rank = _LANE
        if rank < _LANE:
            term = f"np.broadcast_to({term}, (B, {width}))"
        self.emit(f"a = {term}")
        self.rank = _LANE
        return "a"

    def grouped(self, inst, expression: str, rank: int) -> None:
        """Define a lane group's destination from ``expression`` of
        ``rank`` (a uniform value is every lane's), as its pack would
        have: ``(B, w)`` in the register's dtype."""
        register = inst.dst
        wanted = register.dtype.numpy_dtype
        self.rank = rank
        if rank < _LANE:
            if not inst.pack:  # its lanes are read as they are
                return self.define(register, expression, inst.dtype.numpy_dtype, True)
            expression = self.expand(expression, rank, register.width, wanted)
        else:
            expression = self.packed(expression, inst.dtype.numpy_dtype, wanted)
        self.define(register, expression, wanted, True, vector=True)

    def guest_store(self, inst, value: str, exact: bool) -> None:
        # Duplicate addresses resolve to the highest index (numpy fancy
        # assignment): the last-writer-wins order of the batch's warps.
        self.widen()
        self.inline_store(inst, value, exact)

    def stored_flag(self, value: str) -> str:
        return f"{value} != 0"

    def converted(self, value: str, code: str) -> str:
        return f"np.asarray({value}).astype(W_{code}, copy=False)"

    # -- thread context -------------------------------------------------------

    def context_field(self, name: str, axis, lane: int, code: str) -> str:
        self.rank = _WARP
        if name == "warpid":
            return f"state.warp_ids.astype(W_{code})"
        if name == "resume_point":
            return (
                f"np.array([c[{lane}].resume_point for c in state.contexts], "
                f"dtype=W_{code})"
            )
        if axis is None:
            # %clock observes mid-block cycle counters; such blocks run
            # on the sequential path's precise code only.
            raise _Unsupported(f"context field {name}")
        return f"state.per_thread({name!r}, {axis})[:, {lane}].astype(W_{code})"

    def context_read(self, inst) -> None:
        if inst.lane is not None:
            return super().context_read(inst)
        # (An affine tid.x is read as it is: static warps, whose lanes
        # it describes, never batch.)
        wanted, name = inst.dtype.numpy_dtype, inst.field_name
        field, axis = _CONTEXT_COORDINATES.get(name, (name, None))
        if name == "laneid":
            lanes = np.arange(self.executable.warp_size, dtype=wanted)
            expression = f"np.tile({self.constant(lanes)}, (B, 1))"
        elif axis is not None:
            expression = (
                f"state.per_thread({field!r}, {axis}).astype(W_{_code(wanted)})"
            )
        else:
            raise _Unsupported(f"a lane group of context field {name}")
        self.grouped(inst, expression, _LANE)

    def context_write(self, inst: ContextWrite) -> None:
        if inst.field_name != "resume_point":
            raise _Unsupported(f"context field {inst.field_name}")
        if inst.lane is None:
            return self.resume_points(inst.value)
        target = f"c[{inst.lane}].resume_point"
        if self.rank_of(inst.value) == _UNIFORM:
            value = self.integer(inst.value)
            self.emit(f"for c in state.contexts: {target} = {value}")
        else:
            self.emit(
                f"for c, v in zip(state.contexts, "
                f"{self.int_list(inst.value)}): {target} = v"
            )

    def resume_points(self, value) -> None:
        """Every lane's resume point, lane k's of ``value``."""
        width, self.rank = self.executable.warp_size, _LANE
        rows = f"np.broadcast_to({self.operand(value)}, (B, {width}))"
        known, exact = self.known.get(self.slot(value), (None, False))
        if not (exact and known.kind in "iu"):
            rows += ".astype(W_i8)"
        targets = ", ".join(f"c[{k}].resume_point" for k in range(width))
        self.emit(f"for c, v in zip(state.contexts, {rows}.tolist()): {targets} = v")

    # -- lanes -----------------------------------------------------------------

    def element(self, value, index: int) -> str:
        # A per-warp (or uniform) value in a vector register is every lane's.
        vector, rank = self.raw(value), self.rank_of(value)
        return f"{vector}[:, {index}]" if rank == _LANE else vector

    def extract(self, inst: ExtractElement) -> None:
        self.rank = min(self.rank_of(inst.src), _WARP)
        known = self.known.get(self.slot(inst.src), (None, False))
        self.define(inst.dst, self.element(inst.src, inst.index), *known)

    def broadcast(self, inst: Broadcast) -> None:
        wanted = inst.dst.dtype.numpy_dtype
        name, rank = self.raw(inst.src), self.rank_of(inst.src)
        if rank == _LANE:
            raise _Unsupported("a per-lane broadcast source")
        self.define(
            inst.dst,
            self.expand(name, rank, inst.dst.width, wanted),
            wanted, True, vector=True,
        )

    def reduce(self, inst: Reduce) -> None:
        impl = _REDUCE_IMPL.get(inst.op)
        if impl is None:
            raise ExecutionError(f"unknown reduction {inst.op}")
        wanted = inst.dst.dtype.numpy_dtype
        source, rank = self.raw(inst.src), self.rank_of(inst.src)
        # Row-wise through the *scalar* implementations: their
        # Python-int accumulation (exact sums truncated on conversion)
        # is reference behaviour and must match bit for bit.
        one = f"T_{_code(wanted)}({self.constant(impl)}"
        if rank == _LANE:
            expression = f"np.array([{one}(row)) for row in {source}])"
            if inst.op == "add":
                # _reduce_add of a predicate row, for all rows at once.
                expression = (
                    f"np.count_nonzero({source}, axis=1).astype("
                    f"W_{_code(wanted)}) if {source}.dtype is W_b1 "
                    f"else {expression}"
                )
        elif rank == _WARP:
            expression = (
                f"np.array([{one}(np.asarray(v))) for v in {source}])"
            )
        else:
            expression = f"{one}(np.asarray({source})))"
        self.rank = min(rank, _WARP)
        self.define(inst.dst, expression, wanted, True)

    # -- terminators: uniform control flow or region exit -------------------

    def cond_branch(self, inst: CondBranch) -> None:
        predicate, rank = self.raw(inst.predicate), self.rank_of(inst.predicate)
        if rank == _LANE:
            raise _Unsupported("a vector predicate")
        taken, fallthrough = repr(inst.taken), repr(inst.fallthrough)
        if rank == _UNIFORM:
            self.emit(f"return {taken} if {predicate} else {fallthrough}")
            return
        self.emit(f"n = np.count_nonzero({predicate})")
        self.emit(
            f"return {taken} if n == B else {fallthrough} if not n else "
            f"[{taken} if x else {fallthrough} for x in {predicate}.tolist()]"
        )

    def switch(self, inst: Switch) -> None:
        cases = self.constant(dict(inst.cases))
        if self.rank_of(inst.value) == _UNIFORM:
            self.emit(
                f"return {cases}.get({self.integer(inst.value)}, "
                f"{inst.default!r})"
            )
            return
        # One value for the whole batch is the common case; only a
        # batch whose values differ walks them for their labels.
        self.emit(f"v = {self.int_list(inst.value)}")
        self.emit(
            f"if v.count(v[0]) == B: return {cases}.get(v[0], {inst.default!r})"
        )
        self.emit(f"return [{cases}.get(x, {inst.default!r}) for x in v]")


# ---------------------------------------------------------------------------
# Block translation (on first batched entry) and batch admission
# ---------------------------------------------------------------------------

#: Size rule: a batch is formed only when this many full warps wait at
#: one ready-pool key. Measured per batch on the 43 apps
#: (``examples/hot_blocks.py all --batch-sizes``: ``execute_batch`` and
#: ``execute`` timed, warm, batches of two warps up;
#: benchmarks/results/batched_printer/README.md), host us per
#: warp-instruction of a batch that reached its yield: 1.4-1.6 at 2-3
#: warps, 0.51 at 4-7, 0.27 at 8-15, 0.10 at 16-31, against 0.46 one
#: warp at a time — a printed block costs about what it did at half the
#: size when it was a closure per op (2.2 / 1.2 / 0.55 / 0.27, PR 21),
#: so 8 is now the smallest size that wins.
MIN_BATCH_WARPS = 8

#: Outcome rule: per entry point a score, +``_ABORT_WEIGHT`` for a
#: batch that left through continuations, -1 for one that reached its
#: yield (set when an aborted batch lost ~3 x what a completed one
#: saved; since the blocks are printed one of 8-15 warps runs its
#: prefix at 0.54 us per warp-instruction, transplant included, against
#: 0.46 one warp at a time, so the weight now errs toward refusing),
#: kept within
#: ``-_CREDIT .. _ABORT_WEIGHT * _LONGEST``. An abort that leaves the
#: score at ``s > 0`` sends the next ``_REFUSALS ** ceil(s /
#: _ABORT_WEIGHT)`` formation opportunities to the sequential former.
#: So an entry point that alternates (a tree reduction: ``tid < s`` is
#: uniform per warp, not across the batch) backs off as one that always
#: diverges does, only later, while a bounds-guarded uniform kernel
#: (one abort a launch, the mixed warp of its last CTA, after seven
#: completions) never leaves credit. Cap 5: an entry point that always
#: diverges is tried again once per 1 024 opportunities, so a change of
#: behaviour is found.
_ABORT_WEIGHT = 3
_CREDIT = 8
_REFUSALS = 4
_LONGEST = 5


class _ArrayBlocks(_BlockTable):
    """The batched lowering of one executable: the interpreter's
    ``label -> (code, costs...)`` table for template ``"batch"``,
    filled as batches first reach each label; ``None`` is the cached
    answer for a block the batch printer declines, where the runner
    leaves the region.

    ``outcomes`` keeps what the batches did, per entry point, as
    ``[score, refusals left]``. Admission reads nothing else —
    outcomes, never the host clock — so which warps batch is a
    function of the launch history; and the record, living here, is
    shared by every execution manager and dropped with the
    translation it describes.
    """

    def __init__(self, executable: ExecutableFunction):
        super().__init__(executable, "batch")
        self.outcomes: Dict[int, List[int]] = {}

    def __missing__(self, label: str) -> Optional[tuple]:
        try:
            return super().__missing__(label)
        except ExecutionError:
            # No batched form (:class:`_Unsupported`), or nothing the
            # machine can run at all — which the sequential path, given
            # the warps, reports as the trap it is.
            self[label] = None
            return None

    def admits(self, entry_point: int) -> bool:
        """Whether to form a batch at ``entry_point`` now; a refusal
        uses up one of the opportunities the record still refuses."""
        record = self.outcomes.get(entry_point)
        if record is None or not record[1]:
            return True
        record[1] -= 1
        return False

    def merges(self, entry_point: int) -> bool:
        """Whether batches from ``entry_point`` hold the full credit:
        what a batch of every worker's first round, which stops where
        any of its warps disagree, asks (completing, it leaves the
        record where the workers' own batches would)."""
        record = self.outcomes.get(entry_point)
        return record is not None and record[0] == -_CREDIT

    def record(self, entry_point: int, completed: bool) -> None:
        """A batch from ``entry_point`` reached its yield, or left at a
        divergent terminator or an untranslated block."""
        record = self.outcomes.setdefault(entry_point, [0, 0])
        if completed:
            record[0] = max(record[0] - 1, -_CREDIT)
            return
        score = min(record[0] + _ABORT_WEIGHT, _ABORT_WEIGHT * _LONGEST)
        record[0] = score
        if score > 0:
            record[1] = _REFUSALS ** -(-score // _ABORT_WEIGHT)


# ---------------------------------------------------------------------------
# The batch runner
# ---------------------------------------------------------------------------


@dataclass
class BatchOutcome:
    """Result of one batched region walk.

    ``stats`` is what the walk accumulated, once for the batch: it
    applies identically to each warp.

    ``kind == "yield"``: every warp took the same exit, ``status``.

    ``kind == "fallback"``: the region ended before a yield (a
    terminator the warps disagree on, a declined block, or a
    conservative instruction-limit/deadline exit); ``continuations``
    carries one per-warp :class:`Continuation` (each holding ``stats``)
    for the sequential path to finish.
    """

    kind: str
    stats: ExecutionStats
    status: int = 0
    continuations: Tuple[Continuation, ...] = ()
    #: False for a conservative limit/deadline exit, which would have
    #: happened wherever the warps ran: not recorded for admission.
    conclusive: bool = True


def _warp_registers(bstate, position):
    """Extract one warp's ``(slot, value)`` register rows from the
    batched register file."""
    rows = []
    for slot, value in enumerate(bstate.regs):
        if value is None:
            continue
        ndim = getattr(value, "ndim", 0)
        if ndim == 0:
            rows.append((slot, value))
        elif ndim == 1:
            rows.append((slot, value[position]))
        else:
            rows.append((slot, value[position].copy()))
    return tuple(rows)


class ArrayBackend(Interpreter):
    """The executor of every ``Device``.

    Inherits the complete sequential machinery — the warp printer,
    ``execute``'s per-warp run loop — and adds the batch printer plus
    :meth:`execute_batch`. The sequential path is where every warp runs
    that admission does not put in a batch, the fallback target for
    continuations, and all there is for launches the execution manager
    cannot batch (sanitized runs, a patched guest-access seam, static
    formation).
    """

    def array_lowering(self, executable: ExecutableFunction):
        """An empty :class:`_ArrayBlocks` — nothing is lowered until a
        batch enters a block. A function containing atomics gets none
        at all: an atomic's sequential read-modify-write interleaving
        across warps is exactly what batching cannot preserve."""
        if self.sanitizer is not None or any(
            isinstance(instruction, AtomicRMW)
            for instruction in executable.function.instructions()
        ):
            return None
        return _ArrayBlocks(executable)

    def printer(self, executable, block, access: str):
        """``lower_block`` with ``access="batch"`` generates the
        function the block runs a batch through (see
        :class:`_BatchPrinter` for what ``code(bstate)`` returns), and
        raises :class:`_Unsupported` for a block that printer
        declines."""
        if access == "batch":
            return _BatchPrinter(executable, block, dict(self._namespace))
        return super().printer(executable, block, access)

    def execute_batch(
        self,
        executable: ExecutableFunction,
        warps,
        param_base: int,
        limit: int,
        deadline: Optional[float] = None,
    ) -> BatchOutcome:
        """Run a batch of same-entry-point warps through the batched
        region, starting at the scheduler block. Modeled costs are
        charged per block from the same aggregates the sequential path
        uses; instruction-limit and deadline exits are *conservative*
        (the region is left before the offending block, and each
        warp's sequential resume re-detects the condition with
        byte-identical accounting). What the batch did is recorded for
        admission, except a conservative exit and a fault, which say
        nothing about the entry point. The warps' frames must fit, as a
        manager's run verifies (``frames_fit``)."""
        bstate = _BatchState(executable, warps, param_base)
        # Read first: the kernel's context writes update it in place.
        entry_point = warps[0].entry_point
        with guest_errstate():
            outcome = self._run_batch(executable, bstate, limit, deadline)
        if outcome.conclusive:
            reached_yield = outcome.kind == "yield"
            executable.array_blocks.record(entry_point, reached_yield)
        return outcome

    def _run_batch(self, executable, bstate, limit, deadline):
        """The batch's run loop (the shape of ``_WarpState.run``): one
        generated function call and one cost bump per block."""
        blocks = executable.array_blocks
        label = executable.entry_label
        stats = ExecutionStats()
        next_deadline_check = _DEADLINE_CHECK_STRIDE
        #: where each warp continues when the batch leaves the region
        labels = None
        conclusive = True
        while True:
            entry = blocks[label]
            if entry is None:
                # A declined block: leave the region at its entry.
                break
            code, kernel_cycles, yield_cycles, flops, count, _ = entry
            executed = stats.instructions + count
            due = deadline is not None and executed >= next_deadline_check
            if executed > limit or (due and time.monotonic() > deadline):
                # Conservative: each warp's sequential resume finds
                # the limit (or the deadline) where it would have.
                conclusive = False
                break
            if due:
                next_deadline_check = executed + _DEADLINE_CHECK_STRIDE
            try:
                result = code(bstate)
            except ExecutionError as fault:
                # The execution manager abandons a faulting batch and
                # re-runs its warps sequentially (exact trap
                # attribution); the annotation serves direct callers.
                _locate_fault(fault, executable.function, label, code)
                raise
            if result is False:
                # A live-in the block was not printed for: nothing of
                # it ran.
                break
            stats.kernel_cycles += kernel_cycles
            stats.yield_cycles += yield_cycles
            stats.flops += flops
            stats.instructions = executed
            if type(result) is list:
                if len(set(result)) > 1:
                    # The block ran; its warps go different ways.
                    labels = result
                    break
                result = result[0]
            if type(result) is str:
                label = result
                continue
            return BatchOutcome("yield", stats, status=result)
        return BatchOutcome(
            "fallback",
            stats,
            continuations=tuple(
                Continuation(
                    warp_label, stats, _warp_registers(bstate, position)
                )
                for position, warp_label in enumerate(
                    labels or [label] * bstate.size
                )
            ),
            conclusive=conclusive,
        )
