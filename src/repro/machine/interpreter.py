"""Executable lowering and interpretation of IR functions.

``load_function`` is this simulator's stand-in for JIT code generation.
It is a *specializing lowering pass*: every IR instruction is compiled
once, at load time, into a pre-bound Python closure — the handler is
resolved per instruction type, operand registers are renumbered to
integer slots of a flat per-warp register file, constants are
pre-converted to machine values, and the address-space dispatch of
memory operations is resolved statically. Per-instruction cycle/flop
charges are folded into per-block sums (:func:`~repro.machine.
costmodel.aggregate_block_cost`), so the interpreter inner loop is
``for op in body: op(state)`` plus one statistics update per block.

``execute`` then runs a warp of thread contexts through the lowered
function, starting at the scheduler block, until the function yields
back to the execution manager with a resume status (§3's subkernel
execution).

There is one ALU tier: an instruction lowers to a closure over typed
operand readers, and the only generated code is run fusion
(:func:`_try_fuse_run`), which compiles a run of consecutive simple
ALU instructions into one function. The opcode semantics live in the
``_*_IMPL`` tables below; the array backend and the test-side oracle
(``backend="reference"``, the per-instruction interpreter the
differential tests compare against) index the same tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import (
    DeadlineExceeded,
    ExecutionError,
    InstructionLimitExceeded,
)
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
    ResumeStatus,
    Select,
    Store,
    Switch,
    UnaryOp,
    VectorLoad,
    VectorStore,
    Yield,
)
from ..ir.values import Constant
from ..ptx.types import AddressSpace, DataType
from .costmodel import (
    FunctionCostTable,
    aggregate_block_cost,
    build_cost_table,
)
from .descriptor import MachineDescription
from .memory import MemorySystem

# NumPy integer wraparound is the desired machine semantics, but only
# while guest code is executing: the error-state switch is scoped with
# ``np.errstate`` around the run loops (and the array backend's batch
# walk) instead of mutated globally, so importing repro never changes
# the host process's ``np.geterr()`` settings.
_GUEST_ERRSTATE = {
    "over": "ignore",
    "invalid": "ignore",
    "divide": "ignore",
}


def guest_errstate():
    """The numpy error-state context for guest kernel execution."""
    return np.errstate(**_GUEST_ERRSTATE)

_DEFAULT_INSTRUCTION_LIMIT = 200_000_000

#: How many executed instructions may pass between wall-clock deadline
#: checks (the check itself is one ``time.monotonic`` call).
_DEADLINE_CHECK_STRIDE = 4096


def _annotate_fault(fault, label, index) -> None:
    """Attach the program counter (block label + instruction index) to
    an escaping ExecutionError, so the execution manager can build a
    structured trap. First writer wins (the innermost frame knows the
    true fault site); exceptions with __slots__ are left unannotated."""
    if getattr(fault, "trap_label", None) is not None:
        return
    try:
        fault.trap_label = label
        fault.trap_index = index
    except (AttributeError, TypeError):  # pragma: no cover
        pass


@dataclass
class ExecutionStats:
    """Per-execution accounting consumed by the runtime statistics."""

    kernel_cycles: int = 0
    yield_cycles: int = 0
    instructions: int = 0
    flops: int = 0

    def merge(self, other: "ExecutionStats") -> None:
        self.kernel_cycles += other.kernel_cycles
        self.yield_cycles += other.yield_cycles
        self.instructions += other.instructions
        self.flops += other.flops

    def reset(self) -> None:
        """Zero all counters (pooled warp states reuse one instance)."""
        self.kernel_cycles = 0
        self.yield_cycles = 0
        self.instructions = 0
        self.flops = 0


@dataclass
class ExecutableFunction:
    """A lowered function.

    ``compiled_blocks`` holds the closure-specialized form: per block,
    ``(ops, kernel_cycles, yield_cycles, flops, instructions,
    terminator, precise, op_indices)`` where ``ops`` is a tuple of
    pre-bound closures taking the warp state, the middle fields are the
    block's aggregated static cost, ``terminator`` is a closure
    returning either the next block label (str) or a resume status
    (int), ``precise`` marks blocks whose ops carry their own
    per-instruction accounting (``%clock`` readers), and ``op_indices``
    maps each op back to the block instruction index it starts at (the
    trap PC — fused runs cover several instructions).
    """

    function: IRFunction
    cost_table: FunctionCostTable
    compiled_blocks: Dict[str, tuple] = field(default_factory=dict)
    #: register name -> slot in the flat per-warp register file
    register_slots: Dict[str, int] = field(default_factory=dict)
    register_count: int = 0
    entry_label: str = ""
    #: Batched array lowering (``machine.array_backend``): per block,
    #: ``(ops, terminator)`` operating on all resident warps at once.
    #: ``None`` when the loading backend does not build one (plain
    #: interpreter, a sanitized device, or a function the array
    #: translator excludes, e.g. one containing atomics).
    array_blocks: Optional[Dict[str, tuple]] = None

    @property
    def name(self) -> str:
        return self.function.name

    @property
    def warp_size(self) -> int:
        return self.function.warp_size


@dataclass
class Continuation:
    """Mid-kernel hand-off from the array backend to the closure path.

    When a batched warp leaves the uniform array region (a divergent
    terminator, or a block with no array lowering), the batch runner
    builds one Continuation per warp: the label to continue from, the
    warp's register rows extracted from the batched register file, and
    the counters the batched prefix already accumulated. ``execute``
    seeds a warp state with them and resumes ``run`` from the
    label — with ``at_terminator`` set, the block body already ran
    batched and only the terminator remains to evaluate.
    """

    label: str
    at_terminator: bool
    executed: int
    kernel_cycles: int
    yield_cycles: int
    flops: int
    #: ``(slot, value)`` pairs to transplant into the register file.
    registers: Tuple = ()


class Interpreter:
    """Executes lowered IR functions against a memory system."""

    def __init__(
        self,
        machine: MachineDescription,
        memory: MemorySystem,
        instruction_limit: int = _DEFAULT_INSTRUCTION_LIMIT,
        sanitizer=None,
    ):
        self.machine = machine
        self.memory = memory
        self.instruction_limit = instruction_limit
        #: Attached :class:`~repro.sanitizer.KernelSanitizer`. When set,
        #: :meth:`load_function` lowers memory instructions to checked
        #: closures; ``None`` keeps the fast path untouched.
        self.sanitizer = sanitizer

    # -- lowering ("code generation") ------------------------------------

    def load_function(self, function: IRFunction) -> ExecutableFunction:
        """Lower ``function`` for execution (see
        :class:`ExecutableFunction`). Lowering happens once per
        specialization — the translation cache keeps the returned
        executable, so launches never re-lower.
        """
        cost_table = build_cost_table(function, self.machine)
        slots = function.register_slots(refresh=True)
        executable = ExecutableFunction(
            function=function,
            cost_table=cost_table,
            register_slots=slots,
            register_count=len(slots),
            entry_label=function.entry_label,
        )
        for block in function.ordered_blocks():
            executable.compiled_blocks[block.label] = _compile_block(
                block, cost_table, slots, self.memory, self.sanitizer
            )
        return executable

    # -- execution ---------------------------------------------------------

    def new_state(self) -> "_WarpState":
        """A reusable warp-execution state (pool one per execution
        manager and pass it to :meth:`execute` to avoid per-warp
        allocation of the register file and statistics)."""
        return _WarpState(self)

    def execute(
        self,
        executable: ExecutableFunction,
        warp,
        param_base: int,
        stats: Optional[ExecutionStats] = None,
        state: Optional["_WarpState"] = None,
        continuation: Optional["Continuation"] = None,
    ) -> int:
        """Run ``warp`` through ``executable`` from its scheduler block.

        Returns the resume status; each context's ``resume_point`` has
        been updated by the exit handlers before a branch/barrier yield.
        ``state`` may be a pooled :meth:`new_state` instance to reuse
        across executions; per-warp results are then available on
        ``state.stats`` (also merged into ``stats`` when given).

        ``continuation`` resumes the closure fast path mid-kernel: the
        array backend hands over a :class:`Continuation` when a batched
        warp leaves the uniform region, carrying the register rows and
        accumulated counters of the batched prefix.
        """
        if state is None:
            state = self.new_state()
        state.reset(executable, warp, param_base)
        with guest_errstate():
            if continuation is not None:
                status = state.run_continuation(continuation)
            else:
                status = state.run()
        if stats is not None:
            stats.merge(state.stats)
        return status


class _WarpState:
    """Mutable state of one warp execution.

    Instances are reusable: :meth:`reset` rebinds them to a new
    (executable, warp) pair, so execution managers pool one state
    object instead of reallocating registers and statistics per warp.
    The lowered closures read/write ``regs``, a flat list indexed by
    the executable's register slots.
    """

    __slots__ = (
        "memory",
        "limit",
        "deadline",
        "executable",
        "function",
        "warp",
        "contexts",
        "param_base",
        "warp_size",
        "regs",
        "stats",
    )

    def __init__(self, interpreter):
        self.memory = interpreter.memory
        self.limit = interpreter.instruction_limit
        #: Optional wall-clock deadline (``time.monotonic`` value) the
        #: watchdog installs per launch; checked every few thousand
        #: executed instructions so a non-yielding loop cannot outlive
        #: ``ExecutionConfig.launch_timeout_s``.
        self.deadline = None
        self.stats = ExecutionStats()
        self.regs: List[object] = []
        self.executable = None
        self.function = None
        self.warp = None
        self.contexts = ()
        self.param_base = 0
        self.warp_size = 0

    def reset(self, executable, warp, param_base) -> None:
        """Rebind this state to a fresh warp execution."""
        self.executable = executable
        self.function = executable.function
        self.warp = warp
        self.contexts = warp.contexts
        self.param_base = param_base
        self.warp_size = executable.warp_size
        self.stats.reset()
        self.regs = [None] * executable.register_count
        if len(self.contexts) != self.warp_size:
            raise ExecutionError(
                f"{executable.name}: warp of {len(self.contexts)} threads "
                f"given to a warp-size-{self.warp_size} specialization"
            )

    # -- main loop ---------------------------------------------------------

    def run_continuation(self, continuation: "Continuation") -> int:
        """Resume the closure fast path mid-kernel (the array backend's
        fallback): seed the statistics with the batched prefix's
        counters, transplant the warp's register rows, then continue
        from the continuation's label. With ``at_terminator`` set the
        block body already ran batched, so only its terminator is
        evaluated before the walk continues."""
        stats = self.stats
        stats.kernel_cycles = continuation.kernel_cycles
        stats.yield_cycles = continuation.yield_cycles
        stats.flops = continuation.flops
        stats.instructions = continuation.executed
        regs = self.regs
        for slot, value in continuation.registers:
            regs[slot] = value
        label = continuation.label
        if continuation.at_terminator:
            compiled = self.executable.compiled_blocks[label]
            try:
                result = compiled[5](self)
            except ExecutionError as fault:
                block = self.function.blocks.get(label)
                index = (
                    len(block.instructions) if block is not None else -1
                )
                _annotate_fault(fault, label, index)
                raise
            if type(result) is int:
                return result
            label = result
        return self.run(
            start_label=label, start_executed=continuation.executed
        )

    def run(
        self,
        start_label: Optional[str] = None,
        start_executed: int = 0,
    ) -> int:
        """The closure fast path: one pre-bound closure per instruction
        and one statistics update per block executed. Cycle/flop sums
        accumulate in locals and flush to ``stats`` lazily — before any
        precise block (whose ops observe the counters mid-block via
        ``%clock``) and at exit. ``start_label``/``start_executed``
        resume mid-kernel (array-backend fallback); counters already in
        ``stats`` are kept and accumulated onto."""
        blocks = self.executable.compiled_blocks
        label = (
            self.executable.entry_label
            if start_label is None
            else start_label
        )
        executed = start_executed
        stats = self.stats
        limit = self.limit
        deadline = self.deadline
        next_deadline_check = _DEADLINE_CHECK_STRIDE
        kernel_cycles = yield_cycles = flops = 0
        op_position = -1
        op_indices = ()
        try:
            while True:
                (
                    ops,
                    block_kernel_cycles,
                    block_yield_cycles,
                    block_flops,
                    count,
                    terminator,
                    precise,
                    op_indices,
                ) = blocks[label]
                if precise:
                    stats.kernel_cycles += kernel_cycles
                    stats.yield_cycles += yield_cycles
                    stats.flops += flops
                    kernel_cycles = yield_cycles = flops = 0
                op_position = -1
                for op_position, op in enumerate(ops):
                    op(self)
                op_position = -2  # past the body: faults are in the
                # terminator (or the bookkeeping) below
                kernel_cycles += block_kernel_cycles
                yield_cycles += block_yield_cycles
                flops += block_flops
                executed += count
                if executed > limit:
                    raise InstructionLimitExceeded(
                        f"{self.executable.name}: instruction limit "
                        f"exceeded ({limit}); possible infinite loop"
                    )
                if deadline is not None and executed >= next_deadline_check:
                    if time.monotonic() > deadline:
                        raise DeadlineExceeded(
                            f"{self.executable.name}: wall-clock deadline "
                            f"exceeded mid-warp"
                        )
                    next_deadline_check = (
                        executed + _DEADLINE_CHECK_STRIDE
                    )
                result = terminator(self)
                if type(result) is int:
                    stats.kernel_cycles += kernel_cycles
                    stats.yield_cycles += yield_cycles
                    stats.flops += flops
                    stats.instructions = executed
                    return result
                label = result
        except ExecutionError as fault:
            if op_position == -2:
                block = self.function.blocks.get(label)
                index = (
                    len(block.instructions) if block is not None else -1
                )
            elif 0 <= op_position < len(op_indices):
                index = op_indices[op_position]
            else:
                index = -1
            _annotate_fault(fault, label, index)
            # Counters accumulated in locals would otherwise be lost;
            # flush them so a trapped launch still reports its partial
            # cycle/instruction work.
            stats.kernel_cycles += kernel_cycles
            stats.yield_cycles += yield_cycles
            stats.flops += flops
            stats.instructions = executed
            raise


# -- conversion helpers ----------------------------------------------------


_ROUNDING_FNS = {
    "rni": np.rint,
    "rmi": np.floor,
    "rpi": np.ceil,
    "rzi": np.trunc,
}


def _saturating_float_to_int(source, round_fn, numpy_dtype):
    """PTX float→integer ``cvt``: round, then *saturate* to the
    destination range; NaN converts to 0. A plain ``astype`` wraps
    modulo 2**N (and is undefined for NaN), so out-of-range lanes are
    masked to 0 before the cast and patched with the saturated bound
    afterwards. Returns an ndarray (0-d for scalar input).

    The range comparison runs in float64. For 64-bit destinations the
    exact integer bounds are not representable there: the nearest
    float64 at or above ``iinfo.max`` is used as the high cutoff, so
    any float that would overflow the cast still saturates.
    """
    array = np.asarray(source)
    rounded = round_fn(array)
    info = np.iinfo(numpy_dtype)
    compare = rounded.astype(np.float64)
    # float64(info.max) rounds *up* to 2**63 / 2**64 for the 64-bit
    # types; >= keeps the cutoff exact in every width.
    high_cutoff = np.float64(info.max)
    low_cutoff = np.float64(info.min)
    nan_mask = np.isnan(compare)
    high_mask = compare >= high_cutoff
    low_mask = compare <= low_cutoff
    out_of_range = nan_mask | high_mask | low_mask
    safe = np.where(out_of_range, 0.0, rounded)
    result = safe.astype(numpy_dtype)
    if out_of_range.any():
        result = np.where(
            high_mask, numpy_dtype.type(info.max), result
        )
        result = np.where(
            low_mask, numpy_dtype.type(info.min), result
        )
        result = result.astype(numpy_dtype)
    return result


def _convert_impl(inst: Convert):
    """``f(source) -> ndarray`` of one ``cvt`` (0-d for scalar input):
    a plain cast, except float→integer, which rounds in the
    instruction's mode (default ``rzi``) and saturates."""
    numpy_dtype = inst.dst_type.numpy_dtype
    if inst.dst_type.is_float or not inst.src_type.is_float:
        return lambda source: np.asarray(source).astype(numpy_dtype)
    round_fn = _ROUNDING_FNS.get(inst.rounding or "rzi", np.trunc)
    return lambda source: _saturating_float_to_int(
        source, round_fn, numpy_dtype
    )


# -- binary operator implementations -------------------------------------


def _shift_amount(b):
    """Shift counts as unsigned 64-bit values (negative counts on a
    signed operand reinterpret as huge, clamping like PTX)."""
    b = np.asarray(b)
    if b.dtype.kind == "i":
        b = b.view(np.dtype(f"u{b.dtype.itemsize}"))
    return b.astype(np.uint64)


def _clamped_shl(a, b, dtype: DataType):
    """PTX ``shl``: shift amounts >= the type width yield 0 (no modulo
    reduction). The hardware shifter clamps, it does not wrap."""
    bits = dtype.size * 8
    amount = _shift_amount(b)
    safe = np.minimum(amount, np.uint64(bits - 1))
    shifted = a << safe.astype(dtype.numpy_dtype)
    result = np.where(amount >= bits, np.zeros_like(shifted), shifted)
    return result if result.ndim else result[()]


def _clamped_lshr(a, b, dtype: DataType):
    """PTX logical ``shr``: amounts >= the type width yield 0."""
    bits = dtype.size * 8
    unsigned = np.dtype(f"u{dtype.size}")
    amount = _shift_amount(b)
    safe = np.minimum(amount, np.uint64(bits - 1))
    shifted = np.asarray(a).view(unsigned) >> safe.astype(unsigned)
    result = np.where(
        amount >= bits, np.zeros_like(shifted), shifted
    ).view(dtype.numpy_dtype)
    return result if result.ndim else result[()]


def _clamped_ashr(a, b, dtype: DataType):
    """PTX arithmetic ``shr``: amounts >= the type width fill with the
    sign bit — identical to shifting by width-1, so clamping the
    amount is the whole fix."""
    bits = dtype.size * 8
    signed = np.dtype(f"i{dtype.size}")
    safe = np.minimum(_shift_amount(b), np.uint64(bits - 1))
    result = (
        np.asarray(a).view(signed) >> safe.astype(signed)
    ).view(dtype.numpy_dtype)
    return result if result.ndim else result[()]


def _int_div(a, b, dtype):
    if dtype.is_float:
        return np.asarray(a) / np.asarray(b)
    a = np.asarray(a)
    b = np.asarray(b)
    safe_b = np.where(b == 0, 1, b)
    quotient = a // safe_b
    remainder = a - quotient * safe_b
    if dtype.is_signed:
        adjust = (remainder != 0) & ((a < 0) != (b < 0))
        quotient = quotient + adjust
    result = np.where(b == 0, 0, quotient).astype(dtype.numpy_dtype)
    return result if result.ndim else result[()]


def _int_rem(a, b, dtype):
    if dtype.is_float:
        return np.fmod(a, b)
    quotient = _int_div(a, b, dtype)
    b = np.asarray(b)
    result = np.where(
        b == 0, 0, np.asarray(a) - np.asarray(quotient) * b
    ).astype(dtype.numpy_dtype)
    return result if result.ndim else result[()]


def _mulhi(a, b, dtype):
    bits = dtype.size * 8
    if bits <= 32:
        wide = np.int64 if dtype.is_signed else np.uint64
        product = np.asarray(a).astype(wide) * np.asarray(b).astype(wide)
        result = (product >> bits).astype(dtype.numpy_dtype)
        return result if result.ndim else result[()]
    # 64-bit: exact Python integers.
    a_list = np.atleast_1d(np.asarray(a)).tolist()
    b_list = np.atleast_1d(np.asarray(b)).tolist()
    if len(a_list) == 1 and len(b_list) > 1:
        a_list = a_list * len(b_list)
    if len(b_list) == 1 and len(a_list) > 1:
        b_list = b_list * len(a_list)
    values = [
        ((int(x) * int(y)) >> bits) & ((1 << bits) - 1)
        for x, y in zip(a_list, b_list)
    ]
    # The masked values fit uint64 exactly; left to infer a dtype,
    # numpy promotes lanes on either side of 2**63 to float64.
    result = np.array(values, dtype=np.uint64).astype(dtype.numpy_dtype)
    return result if len(values) > 1 else result[0]


def _logical_or_bitwise(numpy_bitop, numpy_logicalop):
    def implementation(a, b, dtype):
        if dtype.is_predicate:
            return numpy_logicalop(a, b)
        return numpy_bitop(a, b)

    return implementation


_BINARY_IMPL = {
    "add": lambda a, b, dt: a + b,
    "sub": lambda a, b, dt: a - b,
    "mul": lambda a, b, dt: a * b,
    "mulhi": _mulhi,
    "div": _int_div,
    "rem": _int_rem,
    "min": lambda a, b, dt: np.minimum(a, b),
    "max": lambda a, b, dt: np.maximum(a, b),
    "and": _logical_or_bitwise(np.bitwise_and, np.logical_and),
    "or": _logical_or_bitwise(np.bitwise_or, np.logical_or),
    "xor": _logical_or_bitwise(np.bitwise_xor, np.logical_xor),
    "shl": _clamped_shl,
    "lshr": _clamped_lshr,
    "ashr": _clamped_ashr,
}


def _unary_not(a, dtype):
    return np.logical_not(a) if dtype.is_predicate else np.invert(a)


def _unary_cnot(a, dtype):
    scalar = dtype.numpy_dtype.type
    return np.where(a == 0, scalar(1), scalar(0))


#: ``op -> f(a, dtype)``. ``mov`` is the identity here; splatting a
#: scalar into a vector destination is each lowering's shape concern.
_UNARY_IMPL = {
    "mov": lambda a, dt: a,
    "neg": lambda a, dt: np.negative(a),
    "abs": lambda a, dt: np.abs(a),
    "not": _unary_not,
    "cnot": _unary_cnot,
}


def _unordered(op):
    def implementation(a, b):
        nan = np.isnan(a) | np.isnan(b)
        return op(a, b) | nan

    return implementation


_COMPARE_IMPL = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
    "ltu": _unordered(lambda a, b: a < b),
    "leu": _unordered(lambda a, b: a <= b),
    "gtu": _unordered(lambda a, b: a > b),
    "geu": _unordered(lambda a, b: a >= b),
    "num": lambda a, b: ~(np.isnan(a) | np.isnan(b)),
    "nan": lambda a, b: np.isnan(a) | np.isnan(b),
}


# ---------------------------------------------------------------------------
# Closure-specialized lowering (the fast path built by load_function)
# ---------------------------------------------------------------------------
#
# Everything static about an instruction is resolved here, once, at
# load time: the handler (one compile function per instruction type),
# operand register slots, machine-value constants, dtype objects, and
# the address-space dispatch of memory operations. What remains per
# execution is only what genuinely varies per warp: the register file,
# the thread contexts, and the parameter segment base.


def _machine_constant(value: Constant):
    """Pre-convert an IR constant to its machine (NumPy) value."""
    return value.dtype.numpy_dtype.type(value.value)


def _typed_constant(value: Constant, dtype: DataType):
    """A constant as seen through :func:`_typed_reader`'s bit
    reinterpretation, computed once at lowering time."""
    fetched = _machine_constant(value)
    wanted = dtype.numpy_dtype
    current = fetched.dtype
    if current == wanted:
        return fetched
    if dtype.is_predicate or current == np.bool_:
        return fetched
    if current.itemsize == wanted.itemsize:
        return fetched.view(wanted)
    return fetched.astype(wanted)


def _raw_reader(value, slots):
    """Compile an untyped operand accessor: ``read(regs) -> value``."""
    if isinstance(value, Constant):
        constant = _machine_constant(value)

        def read(regs, constant=constant):
            return constant

        return read
    slot = slots[value.name]
    if value.width > 1:
        width = value.width
        numpy_dtype = value.dtype.numpy_dtype

        def read(regs):
            current = regs[slot]
            if current is None:
                current = regs[slot] = np.zeros(width, dtype=numpy_dtype)
            return current

    else:
        zero = value.dtype.numpy_dtype.type(0)

        def read(regs):
            current = regs[slot]
            if current is None:
                current = regs[slot] = zero
            return current

    return read


def _typed_reader(value, slots, dtype: DataType):
    """Compile a typed operand accessor: PTX registers are untyped bit
    containers, the instruction's dtype imposes the interpretation
    (e.g. ``max.s32`` on a ``.u32`` register). Single-layer closures:
    the register lookup, lazy default, and bit reinterpretation are
    one call."""
    if isinstance(value, Constant):
        constant = _typed_constant(value, dtype)

        def read(regs, constant=constant):
            return constant

        return read
    slot = slots[value.name]
    wanted = dtype.numpy_dtype
    predicate = dtype.is_predicate
    if value.width > 1:
        width = value.width
        stored_dtype = value.dtype.numpy_dtype

        def default(regs):
            fetched = regs[slot] = np.zeros(width, dtype=stored_dtype)
            return fetched

    else:
        zero = value.dtype.numpy_dtype.type(0)

        def default(regs):
            regs[slot] = zero
            return zero

    def read(regs):
        fetched = regs[slot]
        if fetched is None:
            fetched = default(regs)
        current = getattr(fetched, "dtype", None)
        if current is wanted or current is None or current == wanted:
            return fetched
        if predicate or current == np.bool_:
            return fetched
        if current.itemsize == wanted.itemsize:
            return fetched.view(wanted)
        return fetched.astype(wanted)

    return read


def _address_reader(inst, slots):
    """Compile the address computation of a memory instruction with the
    address-space dispatch resolved statically (and the whole address
    folded to a constant when the base is one)."""
    space = inst.space
    offset = inst.offset
    lane = inst.lane
    base = inst.base
    if isinstance(base, Constant):
        static = int(_machine_constant(base)) + offset
        if space is AddressSpace.global_:
            return lambda state: static
        if space is AddressSpace.param:
            return lambda state: state.param_base + static
        if space is AddressSpace.shared:
            return lambda state: (
                state.contexts[lane].shared_base + static
            )
        if space is AddressSpace.local:
            return lambda state: (
                state.contexts[lane].local_base + static
            )
        raise ExecutionError(f"unresolvable address space {space}")
    read = _raw_reader(base, slots)
    if space is AddressSpace.global_:
        return lambda state: int(read(state.regs)) + offset
    if space is AddressSpace.param:
        return lambda state: (
            state.param_base + int(read(state.regs)) + offset
        )
    if space is AddressSpace.shared:
        return lambda state: (
            state.contexts[lane].shared_base
            + int(read(state.regs))
            + offset
        )
    if space is AddressSpace.local:
        return lambda state: (
            state.contexts[lane].local_base
            + int(read(state.regs))
            + offset
        )
    raise ExecutionError(f"unresolvable address space {space}")


# -- per-type instruction compilers ---------------------------------------


def _compile_binary(inst: BinaryOp, slots, memory):
    impl = _BINARY_IMPL[inst.op]
    dtype = inst.dtype
    read_a = _typed_reader(inst.a, slots, dtype)
    read_b = _typed_reader(inst.b, slots, dtype)
    dst = slots[inst.dst.name]

    def op(state):
        regs = state.regs
        regs[dst] = impl(read_a(regs), read_b(regs), dtype)

    return op


def _compile_unary(inst: UnaryOp, slots, memory):
    impl = _UNARY_IMPL.get(inst.op)
    if impl is None:
        raise ExecutionError(f"unknown unary op {inst.op}")
    dtype = inst.dtype
    read_a = _typed_reader(inst.a, slots, dtype)
    dst = slots[inst.dst.name]
    if inst.op == "mov" and inst.dst.width > 1:
        # A scalar moved into a vector register splats to its width.
        width = inst.dst.width
        numpy_dtype = dtype.numpy_dtype

        def op(state):
            regs = state.regs
            value = read_a(regs)
            if not (isinstance(value, np.ndarray) and value.ndim == 1):
                value = np.full(width, value, dtype=numpy_dtype)
            regs[dst] = value

    else:

        def op(state):
            regs = state.regs
            regs[dst] = impl(read_a(regs), dtype)

    return op


def _compile_fma(inst: FusedMultiplyAdd, slots, memory):
    dtype = inst.dtype
    read_a = _typed_reader(inst.a, slots, dtype)
    read_b = _typed_reader(inst.b, slots, dtype)
    read_c = _typed_reader(inst.c, slots, dtype)
    dst = slots[inst.dst.name]

    def op(state):
        regs = state.regs
        regs[dst] = read_a(regs) * read_b(regs) + read_c(regs)

    return op


def _compile_compare(inst: Compare, slots, memory):
    impl = _COMPARE_IMPL[inst.op]
    read_a = _typed_reader(inst.a, slots, inst.dtype)
    read_b = _typed_reader(inst.b, slots, inst.dtype)
    dst = slots[inst.dst.name]

    def op(state):
        regs = state.regs
        regs[dst] = impl(read_a(regs), read_b(regs))

    return op


def _compile_select(inst: Select, slots, memory):
    read_predicate = _raw_reader(inst.predicate, slots)
    read_a = _raw_reader(inst.a, slots)
    read_b = _raw_reader(inst.b, slots)
    dst = slots[inst.dst.name]
    numpy_dtype = inst.dtype.numpy_dtype
    if inst.dst.width > 1:

        def op(state):
            regs = state.regs
            regs[dst] = np.where(
                read_predicate(regs), read_a(regs), read_b(regs)
            ).astype(numpy_dtype)

    else:
        scalar = numpy_dtype.type

        def op(state):
            regs = state.regs
            regs[dst] = scalar(
                read_a(regs)
                if bool(read_predicate(regs))
                else read_b(regs)
            )

    return op


def _compile_convert(inst: Convert, slots, memory):
    read = _typed_reader(inst.src, slots, inst.src_type)
    convert = _convert_impl(inst)
    dst = slots[inst.dst.name]

    def op(state):
        regs = state.regs
        result = convert(read(regs))
        regs[dst] = result[()] if result.ndim == 0 else result

    return op


def _rsqrt(argument):
    return 1.0 / np.sqrt(argument)


def _rcp(argument):
    return 1.0 / np.asarray(argument)


_INTRINSIC_IMPL = {
    "sqrt": np.sqrt,
    "rsqrt": _rsqrt,
    "rcp": _rcp,
    "sin": np.sin,
    "cos": np.cos,
    "ex2": np.exp2,
    "lg2": np.log2,
}


def _compile_intrinsic(inst: Intrinsic, slots, memory):
    impl = _INTRINSIC_IMPL.get(inst.name)
    if impl is None:
        raise ExecutionError(f"unknown intrinsic {inst.name}")
    read = _raw_reader(inst.args[0], slots)
    numpy_dtype = inst.dtype.numpy_dtype
    dst = slots[inst.dst.name]

    def op(state):
        regs = state.regs
        result = np.asarray(impl(read(regs))).astype(numpy_dtype)
        regs[dst] = result[()] if result.ndim == 0 else result

    return op


def _compile_load(inst: Load, slots, memory):
    address = _address_reader(inst, slots)
    load = memory.load
    dtype = inst.dtype
    dst = slots[inst.dst.name]

    def op(state):
        state.regs[dst] = load(dtype, address(state))

    return op


def _compile_store(inst: Store, slots, memory):
    address = _address_reader(inst, slots)
    read_value = _raw_reader(inst.value, slots)
    store = memory.store
    dtype = inst.dtype

    def op(state):
        store(dtype, address(state), read_value(state.regs))

    return op


def _compile_vector_load(inst: VectorLoad, slots, memory):
    address = _address_reader(inst, slots)
    read_array = memory.read_array
    numpy_dtype = inst.dtype.numpy_dtype
    width = inst.dst.width
    dst = slots[inst.dst.name]

    def op(state):
        state.regs[dst] = read_array(address(state), numpy_dtype, width)

    return op


def _compile_vector_store(inst: VectorStore, slots, memory):
    address = _address_reader(inst, slots)
    read_value = _raw_reader(inst.value, slots)
    write_array = memory.write_array
    numpy_dtype = inst.dtype.numpy_dtype

    def op(state):
        array = np.asarray(read_value(state.regs), dtype=numpy_dtype)
        if array.ndim == 0:
            array = np.full(state.warp_size, array, dtype=numpy_dtype)
        write_array(address(state), array)

    return op


#: ``op -> f(old, operand, compare)``: the value an atomic
#: read-modify-write stores back (``compare`` is ``None`` except for
#: ``cas``). Operands are numpy scalars of the instruction's type.
_ATOMIC_IMPL = {
    "add": lambda old, operand, compare: old + operand,
    "min": lambda old, operand, compare: min(old, operand),
    "max": lambda old, operand, compare: max(old, operand),
    "exch": lambda old, operand, compare: operand,
    "and": lambda old, operand, compare: old & operand,
    "or": lambda old, operand, compare: old | operand,
    "xor": lambda old, operand, compare: old ^ operand,
    "inc": lambda old, operand, compare: (
        0 if old >= operand else old + 1
    ),
    "dec": lambda old, operand, compare: (
        operand if (old == 0 or old > operand) else old - 1
    ),
    "cas": lambda old, operand, compare: (
        operand if old == compare else old
    ),
}


def _atomic_compute(inst: AtomicRMW, slots):
    """The read-modify-write combining function of one atomic, shared
    by the fast and checked lowerings: ``compute(old, operand, regs)``
    returns the value to store back."""
    impl = _ATOMIC_IMPL.get(inst.op)
    if impl is None:
        raise ExecutionError(f"unknown atomic op {inst.op}")
    if inst.op == "cas":
        read_compare = _raw_reader(inst.compare, slots)

        def compute(old, operand, regs):
            return impl(old, operand, read_compare(regs))

    else:

        def compute(old, operand, regs):
            return impl(old, operand, None)

    return compute


def _compile_atomic(inst: AtomicRMW, slots, memory):
    address = _address_reader(inst, slots)
    read_value = _raw_reader(inst.value, slots)
    load = memory.load
    store = memory.store
    dtype = inst.dtype
    dst = slots[inst.dst.name] if inst.dst is not None else None
    compute = _atomic_compute(inst, slots)

    def op(state):
        regs = state.regs
        location = address(state)
        old = load(dtype, location)
        store(dtype, location, compute(old, read_value(regs), regs))
        if dst is not None:
            regs[dst] = old

    return op


# -- checked (sanitized) memory compilers ----------------------------------
#
# The sanitizer variant of the memory lowering: identical address
# computation and register plumbing, but every access routes through
# the sanitizer's guest_* entry points, which classify it against the
# shadow state (and feed shared accesses to the race detector) before
# touching the arena. These compilers are only selected when a
# sanitizer is attached, so the unchecked fast path above stays
# byte-for-byte what PR 2 shipped. ``sanitizer.guest_*`` is looked up
# per call (late binding) so fault-injection harnesses can patch the
# sanitizer instance even after translation.


def _compile_checked_load(inst: Load, slots, memory, sanitizer, label, index):
    address = _address_reader(inst, slots)
    dtype = inst.dtype
    dst = slots[inst.dst.name]
    lane = inst.lane
    shared = inst.space is AddressSpace.shared

    def op(state):
        state.regs[dst] = sanitizer.guest_load(
            state, lane, address(state), dtype, shared, label, index
        )

    return op


def _compile_checked_store(
    inst: Store, slots, memory, sanitizer, label, index
):
    address = _address_reader(inst, slots)
    read_value = _raw_reader(inst.value, slots)
    dtype = inst.dtype
    lane = inst.lane
    shared = inst.space is AddressSpace.shared

    def op(state):
        sanitizer.guest_store(
            state, lane, address(state), dtype,
            read_value(state.regs), shared, label, index,
        )

    return op


def _compile_checked_vector_load(
    inst: VectorLoad, slots, memory, sanitizer, label, index
):
    address = _address_reader(inst, slots)
    numpy_dtype = inst.dtype.numpy_dtype
    width = inst.dst.width
    dst = slots[inst.dst.name]
    lane = getattr(inst, "lane", 0)
    shared = inst.space is AddressSpace.shared

    def op(state):
        state.regs[dst] = sanitizer.guest_read_vector(
            state, lane, address(state), numpy_dtype, width, shared,
            label, index,
        )

    return op


def _compile_checked_vector_store(
    inst: VectorStore, slots, memory, sanitizer, label, index
):
    address = _address_reader(inst, slots)
    read_value = _raw_reader(inst.value, slots)
    numpy_dtype = inst.dtype.numpy_dtype
    lane = getattr(inst, "lane", 0)
    shared = inst.space is AddressSpace.shared

    def op(state):
        array = np.asarray(read_value(state.regs), dtype=numpy_dtype)
        if array.ndim == 0:
            array = np.full(state.warp_size, array, dtype=numpy_dtype)
        sanitizer.guest_write_vector(
            state, lane, address(state), array, shared, label, index
        )

    return op


def _compile_checked_atomic(
    inst: AtomicRMW, slots, memory, sanitizer, label, index
):
    address = _address_reader(inst, slots)
    read_value = _raw_reader(inst.value, slots)
    dtype = inst.dtype
    dst = slots[inst.dst.name] if inst.dst is not None else None
    lane = inst.lane
    shared = inst.space is AddressSpace.shared
    compute = _atomic_compute(inst, slots)

    def op(state):
        regs = state.regs
        location = address(state)
        old = sanitizer.guest_load(
            state, lane, location, dtype, shared, label, index,
            atomic=True,
        )
        sanitizer.guest_store(
            state, lane, location, dtype,
            compute(old, read_value(regs), regs), shared, label, index,
            atomic=True,
        )
        if dst is not None:
            regs[dst] = old

    return op


#: Context fields that read a plain (attribute, axis) coordinate.
_CONTEXT_COORDINATES = {
    "tid.x": ("tid", 0),
    "tid.y": ("tid", 1),
    "tid.z": ("tid", 2),
    "ntid.x": ("ntid", 0),
    "ntid.y": ("ntid", 1),
    "ntid.z": ("ntid", 2),
    "ctaid.x": ("ctaid", 0),
    "ctaid.y": ("ctaid", 1),
    "ctaid.z": ("ctaid", 2),
    "nctaid.x": ("nctaid", 0),
    "nctaid.y": ("nctaid", 1),
    "nctaid.z": ("nctaid", 2),
}


def _compile_context_read(inst: ContextRead, slots, memory):
    lane = inst.lane
    convert = inst.dtype.numpy_dtype.type
    dst = slots[inst.dst.name]
    field_name = inst.field_name
    if field_name == "laneid":
        value = convert(lane)

        def op(state):
            state.regs[dst] = value

    elif field_name == "warpid":

        def op(state):
            state.regs[dst] = convert(state.warp.warp_id)

    elif field_name == "clock":

        def op(state):
            stats = state.stats
            state.regs[dst] = convert(
                stats.kernel_cycles + stats.yield_cycles
            )

    elif field_name == "resume_point":

        def op(state):
            state.regs[dst] = convert(
                state.contexts[lane].resume_point
            )

    elif field_name in _CONTEXT_COORDINATES:
        attribute, axis = _CONTEXT_COORDINATES[field_name]

        def op(state):
            state.regs[dst] = convert(
                getattr(state.contexts[lane], attribute)[axis]
            )

    else:
        raise ExecutionError(f"unknown context field {field_name}")
    return op


def _compile_context_write(inst: ContextWrite, slots, memory):
    if inst.field_name != "resume_point":
        raise ExecutionError(
            f"unwritable context field {inst.field_name}"
        )
    lane = inst.lane
    read = _raw_reader(inst.value, slots)

    def op(state):
        state.contexts[lane].resume_point = int(read(state.regs))

    return op


def _compile_insert(inst: InsertElement, slots, memory):
    dst = slots[inst.dst.name]
    numpy_dtype = inst.dst.dtype.numpy_dtype
    width = inst.dst.width
    index = inst.index
    read_scalar = _raw_reader(inst.scalar, slots)
    if inst.src is None:

        def op(state):
            regs = state.regs
            vector = np.zeros(width, dtype=numpy_dtype)
            vector[index] = read_scalar(regs)
            regs[dst] = vector

    else:
        read_src = _raw_reader(inst.src, slots)

        def op(state):
            regs = state.regs
            vector = np.array(read_src(regs), dtype=numpy_dtype)
            if vector.ndim == 0:
                vector = np.full(width, vector, dtype=numpy_dtype)
            vector[index] = read_scalar(regs)
            regs[dst] = vector

    return op


def _compile_extract(inst: ExtractElement, slots, memory):
    read = _raw_reader(inst.src, slots)
    index = inst.index
    dst = slots[inst.dst.name]

    def op(state):
        regs = state.regs
        vector = read(regs)
        if isinstance(vector, np.ndarray) and vector.ndim == 1:
            regs[dst] = vector[index]
        else:
            regs[dst] = vector

    return op


def _compile_broadcast(inst: Broadcast, slots, memory):
    read = _raw_reader(inst.src, slots)
    width = inst.dst.width
    numpy_dtype = inst.dst.dtype.numpy_dtype
    dst = slots[inst.dst.name]

    def op(state):
        regs = state.regs
        regs[dst] = np.full(width, read(regs), dtype=numpy_dtype)

    return op


def _reduce_add(source):
    if source.dtype == np.bool_:
        return int(np.count_nonzero(source))
    return int(source.sum())


def _reduce_uni(source):
    return bool((source == source.flat[0]).all())


def _reduce_ballot(source):
    bits = 0
    for index, value in enumerate(np.atleast_1d(source)):
        if value:
            bits |= 1 << index
    return bits


_REDUCE_IMPL = {
    "add": _reduce_add,
    "any": lambda source: bool(source.any()),
    "all": lambda source: bool(source.all()),
    "uni": _reduce_uni,
    "ballot": _reduce_ballot,
}


def _compile_reduce(inst: Reduce, slots, memory):
    impl = _REDUCE_IMPL.get(inst.op)
    if impl is None:
        raise ExecutionError(f"unknown reduction {inst.op}")
    read = _raw_reader(inst.src, slots)
    convert = inst.dst.dtype.numpy_dtype.type
    dst = slots[inst.dst.name]

    def op(state):
        regs = state.regs
        regs[dst] = convert(impl(np.asarray(read(regs))))

    return op


# -- terminator compilers --------------------------------------------------


def _compile_branch(inst: Branch, slots):
    target = inst.target
    return lambda state: target


def _compile_cond_branch(inst: CondBranch, slots):
    read = _raw_reader(inst.predicate, slots)
    taken = inst.taken
    fallthrough = inst.fallthrough
    return lambda state: (
        taken if bool(read(state.regs)) else fallthrough
    )


def _compile_switch(inst: Switch, slots):
    read = _raw_reader(inst.value, slots)
    cases = dict(inst.cases)
    default = inst.default
    return lambda state: cases.get(int(read(state.regs)), default)


def _compile_yield(inst: Yield, slots):
    status = inst.status
    return lambda state: status


def _compile_exit(inst: Exit, slots):
    status = ResumeStatus.THREAD_EXIT
    return lambda state: status


def _compile_barrier_term(inst: BarrierTerm, slots):
    def terminate(state):
        raise ExecutionError(
            "raw barrier terminator reached the machine; kernels must "
            "be specialized through the vectorizer first"
        )

    return terminate


_COMPILERS = {
    BinaryOp: _compile_binary,
    UnaryOp: _compile_unary,
    FusedMultiplyAdd: _compile_fma,
    Compare: _compile_compare,
    Select: _compile_select,
    Convert: _compile_convert,
    Intrinsic: _compile_intrinsic,
    Load: _compile_load,
    Store: _compile_store,
    VectorLoad: _compile_vector_load,
    VectorStore: _compile_vector_store,
    AtomicRMW: _compile_atomic,
    ContextRead: _compile_context_read,
    ContextWrite: _compile_context_write,
    InsertElement: _compile_insert,
    ExtractElement: _compile_extract,
    Broadcast: _compile_broadcast,
    Reduce: _compile_reduce,
}

#: The sanitizer-aware lowering variant: memory instructions whose
#: closures route through the attached sanitizer. Signature
#: ``(inst, slots, memory, sanitizer, block_label, instruction_index)``
#: — label/index pin every finding to its exact program point.
_CHECKED_COMPILERS = {
    Load: _compile_checked_load,
    Store: _compile_checked_store,
    VectorLoad: _compile_checked_vector_load,
    VectorStore: _compile_checked_vector_store,
    AtomicRMW: _compile_checked_atomic,
}

_TERMINATOR_COMPILERS = {
    Branch: _compile_branch,
    CondBranch: _compile_cond_branch,
    Switch: _compile_switch,
    Yield: _compile_yield,
    Exit: _compile_exit,
    BarrierTerm: _compile_barrier_term,
}


def _wrap_precise(op, cycles: int, flops: int, overhead: bool):
    """Per-instruction accounting wrapper for blocks that observe the
    cycle counter mid-block (``%clock``): the aggregated per-block sums
    would lag what the guest should observe, so such blocks charge
    each instruction as it executes."""
    if overhead:

        def wrapped(state):
            op(state)
            stats = state.stats
            stats.yield_cycles += cycles
            stats.flops += flops

    else:

        def wrapped(state):
            op(state)
            stats = state.stats
            stats.kernel_cycles += cycles
            stats.flops += flops

    return wrapped


# -- run fusion ------------------------------------------------------------
#
# Consecutive simple ALU instructions (FMA and the pure binary ops whose
# implementation is a single expression) compile into ONE generated
# closure per run: values flow through Python locals instead of the
# register file, dtype guards are hoisted to the run entry (one per
# upward-exposed register), and the register file is written once per
# defined register at the end. Any guard failure falls back to the
# per-instruction closures and their typed readers.

_FUSABLE_BINARY_EXPR = {
    "add": "{a} + {b}",
    "sub": "{a} - {b}",
    "mul": "{a} * {b}",
    "min": "np.minimum({a}, {b})",
    "max": "np.maximum({a}, {b})",
}


def _is_fusable(instruction) -> bool:
    if isinstance(instruction, FusedMultiplyAdd):
        return True
    return (
        isinstance(instruction, BinaryOp)
        and instruction.op in _FUSABLE_BINARY_EXPR
    )


def _try_fuse_run(run, slots, fallback_ops):
    """Compile a run of fusable instructions into one closure, or
    return ``None`` when the run's dataflow cannot be proven
    dtype-consistent statically (the per-op closures then stay)."""
    namespace = {"np": np, "fallback_ops": fallback_ops}
    preload: Dict[int, object] = {}  # slot -> guarded np.dtype
    written: Dict[int, object] = {}  # slot -> producing np.dtype
    lines = []
    counter = 0

    def operand(value, dtype):
        nonlocal counter
        if isinstance(value, Constant):
            name = f"k{counter}"
            counter += 1
            namespace[name] = _typed_constant(value, dtype)
            return name
        slot = slots[value.name]
        wanted = dtype.numpy_dtype
        produced = written.get(slot)
        if produced is not None:
            # Defined earlier in the run: the local carries the
            # producer's dtype; a reinterpreting consumer needs the
            # typed reader, so refuse to fuse.
            return None if produced != wanted else f"v{slot}"
        guarded = preload.get(slot)
        if guarded is None:
            preload[slot] = wanted
        elif guarded != wanted:
            return None
        return f"v{slot}"

    for instruction in run:
        if isinstance(instruction, FusedMultiplyAdd):
            dtype = instruction.dtype
            a = operand(instruction.a, dtype)
            b = operand(instruction.b, dtype)
            c = operand(instruction.c, dtype)
            if a is None or b is None or c is None:
                return None
            expression = f"{a} * {b} + {c}"
        else:
            dtype = instruction.dtype
            a = operand(instruction.a, dtype)
            b = operand(instruction.b, dtype)
            if a is None or b is None:
                return None
            expression = _FUSABLE_BINARY_EXPR[instruction.op].format(
                a=a, b=b
            )
        dst = slots[instruction.dst.name]
        lines.append(f"v{dst} = {expression}")
        written[dst] = dtype.numpy_dtype

    loads = []
    guards = []
    for slot, wanted in preload.items():
        loads.append(f"v{slot} = regs[{slot}]")
        guards.append(f"v{slot}.dtype is w{slot}")
        namespace[f"w{slot}"] = wanted
    flush = [f"regs[{slot}] = v{slot}" for slot in written]
    indent = "\n            "
    guard = " and ".join(guards) if guards else "True"
    source = (
        "def run_ops(state):\n"
        "    regs = state.regs\n"
        "    try:\n"
        f"        {(chr(10) + '        ').join(loads)}\n"
        f"        if {guard}:\n"
        f"            {indent.join(lines)}\n"
        f"            {indent.join(flush)}\n"
        "            return\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    for op in fallback_ops:\n"
        "        op(state)\n"
    )
    exec(compile(source, "<fused-run>", "exec"), namespace)
    return namespace["run_ops"]


def _fuse_block_ops(block, slots, ops):
    """Replace runs of >=2 consecutive fusable instruction closures in
    ``ops`` with single generated run closures. Statistics are per
    block, so fusion never changes modeled accounting. Returns
    ``(fused_ops, op_indices)`` where ``op_indices[i]`` is the block
    instruction index of the first instruction ``fused_ops[i]`` covers
    (the trap PC of a fault inside a fused run points at its head)."""
    fused = []
    indices = []
    instructions = block.instructions
    index = 0
    total = len(instructions)
    while index < total:
        if not _is_fusable(instructions[index]):
            fused.append(ops[index])
            indices.append(index)
            index += 1
            continue
        end = index + 1
        while end < total and _is_fusable(instructions[end]):
            end += 1
        if end - index < 2:
            fused.append(ops[index])
            indices.append(index)
        else:
            run = instructions[index:end]
            fallback_ops = tuple(ops[index:end])
            run_op = _try_fuse_run(run, slots, fallback_ops)
            if run_op is None:
                fused.extend(fallback_ops)
                indices.extend(range(index, end))
            else:
                fused.append(run_op)
                indices.append(index)
        index = end
    return fused, indices


def _compile_block(block, cost_table, slots, memory, sanitizer=None):
    """Lower one basic block to its compiled tuple (see
    :class:`ExecutableFunction.compiled_blocks`). With a ``sanitizer``,
    memory instructions lower to checked closures instead of the
    pre-bound fast-path ones."""
    precise = any(
        isinstance(instruction, ContextRead)
        and instruction.field_name == "clock"
        for instruction in block.instructions
    )
    ops = []
    label = block.label
    for index, instruction in enumerate(block.instructions):
        checked_fn = (
            _CHECKED_COMPILERS.get(type(instruction))
            if sanitizer is not None
            else None
        )
        if checked_fn is not None:
            op = checked_fn(
                instruction, slots, memory, sanitizer, label, index
            )
        else:
            compile_fn = _COMPILERS.get(type(instruction))
            if compile_fn is None:
                raise ExecutionError(
                    f"no lowering for instruction {instruction!r}"
                )
            op = compile_fn(instruction, slots, memory)
        if precise:
            cost = cost_table.cost_of(instruction)
            op = _wrap_precise(
                op,
                cost.cycles,
                cost.flops,
                bool(getattr(instruction, "overhead", False)),
            )
        ops.append(op)
    op_indices = list(range(len(ops)))
    if not precise:
        # Precise blocks need per-op accounting; every other block may
        # fuse runs of simple ALU ops into single generated closures.
        ops, op_indices = _fuse_block_ops(block, slots, ops)
    terminator = block.terminator
    compile_terminator = _TERMINATOR_COMPILERS.get(type(terminator))
    if compile_terminator is None:
        raise ExecutionError(
            f"no lowering for terminator {terminator!r}"
        )
    cost = aggregate_block_cost(block, cost_table)
    if precise:
        # Body charges were folded into the per-op wrappers; only the
        # terminator's cycles remain block-level.
        terminator_cost = cost_table.cost_of(terminator)
        if getattr(terminator, "overhead", False):
            kernel_cycles, yield_cycles = 0, terminator_cost.cycles
        else:
            kernel_cycles, yield_cycles = terminator_cost.cycles, 0
        flops = 0
    else:
        kernel_cycles = cost.kernel_cycles
        yield_cycles = cost.yield_cycles
        flops = cost.flops
    return (
        tuple(ops),
        kernel_cycles,
        yield_cycles,
        flops,
        cost.instructions,
        compile_terminator(terminator, slots),
        precise,
        tuple(op_indices),
    )
