"""Executable lowering and interpretation of IR functions.

This module is the simulator's stand-in for JIT code generation, and
like the paper's translation cache (§5.1) it generates code *when a
warp first needs it*. ``load_function`` only numbers the function's
registers into the slots of a flat per-warp register file. The first
time a warp reaches a block label, the block is printed as ONE Python
function — the body and the terminator — and its static cost is
aggregated; a block no warp enters (the cold arm of a divergent kernel,
a width nobody forms) is never priced or compiled, and ``warm()`` costs
IR only.

One opcode table (``_EMITTERS``) is printed by two printers that share
:class:`_BlockEmitter` — what an instruction computes: its operands,
the dtype each is read as, the result's dtype, the constant pool, the
address, the inline memory template. :class:`_WarpPrinter` prints the
block for one warp; ``array_backend._BatchPrinter`` for every warp of a
batch at once.

Inside a generated function registers are locals (written through to
the register file, so a trap dump is exact at every instruction), the
bit reinterpretation PTX's untyped registers need (``max.s32`` on a
``.u32`` value) is resolved statically where the producer's dtype is
known in the block and is one inline guard where it is not, the
address-space dispatch is resolved per instruction, and a warp's memory
instructions are printed against one of three access templates: inline
against typed views of the arena (bounds check and
``load_count``/``store_count`` kept), late-bound ``memory.load(...)``
calls while a fault injector has the memory system patched, or the
sanitizer's checked ``guest_*`` entry points. Cycle and flop charges
are per-block sums added by the run loop — except in blocks that read
``%clock``, which charge per instruction, inline. A line →
instruction-index table per function recovers the trap PC from the
traceback, and the source is registered with :mod:`linecache` under
``<repro:kernel/wsN/label>`` (each line ends in the IR instruction it
came from), so tracebacks and ``pdb`` show it;
:meth:`ExecutableFunction.block_source` returns it.

``execute`` runs a warp of thread contexts through the function,
starting at the scheduler block, until the function yields back to the
execution manager with a resume status (§3's subkernel execution).

The opcode semantics live in the ``_*_IMPL`` tables below — for the
operators that are a single expression, as the template the printers
inline, from which the table's callable is built — and the test-side
oracle (``backend="reference"``, the per-instruction interpreter the
differential tests compare against) indexes the same tables.
"""

from __future__ import annotations

import linecache
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

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
    ExecutionStats,
    FunctionCostTable,
    aggregate_block_cost,
    build_cost_table,
)
from .descriptor import MachineDescription
from .memory import _NULL_GUARD, MemorySystem

# NumPy integer wraparound is the desired machine semantics, but only
# while guest code is executing: the error-state switch is scoped with
# ``np.errstate`` — by an execution manager around its run, else
# around the run loop (and always around the array backend's batch
# walk) — instead of mutated globally, so importing repro never
# changes the host process's ``np.geterr()`` settings.
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


def _locate_fault(fault, function, label, code) -> None:
    """Annotate ``fault``, caught by a run loop around generated block
    function ``code``, with its program counter: the block label and
    the index of the instruction whose generated line was executing,
    read off the traceback (the frame below the run loop's is
    ``code``'s). A fault the run loop raised itself — the instruction
    limit, the deadline — sits past the body, at the terminator; one
    from anywhere else (lowering the block failed) has no
    instruction."""
    frame = fault.__traceback__.tb_next
    if frame is None:
        block = function.blocks.get(label)
        index = len(block.instructions) if block is not None else -1
    elif code is not None and frame.tb_frame.f_code is code.__code__:
        index = code.line_index[frame.tb_lineno]
    else:
        index = -1
    _annotate_fault(fault, label, index)


@dataclass
class ExecutableFunction:
    """A loaded function: the IR, its register numbering, and what has
    been lowered of it so far.

    Block *cost* and block *code* are separate and both lazy:
    :meth:`block_cost` prices a block on first request (the array
    backend charges a batched walk from it without generating any
    sequential-path code), and :meth:`blocks` returns the table that
    generates a block's function when a warp first reaches its label.
    """

    function: IRFunction
    #: The interpreter that loaded the function: generated code binds
    #: its memory system and sanitizer, costs are priced for its
    #: machine.
    target: "Interpreter" = field(repr=False)
    #: register name -> slot in the flat per-warp register file
    register_slots: Dict[str, int] = field(repr=False)
    register_count: int = 0
    entry_label: str = ""
    #: access template name -> the :class:`_BlockTable` of code
    #: generated with it (one per executable unless a fault injector
    #: patched the memory system at some point)
    code: Dict[str, "_BlockTable"] = field(default_factory=dict, repr=False)
    #: label -> aggregated static cost, for blocks asked about so far
    block_costs: Dict[str, ExecutionStats] = field(
        default_factory=dict, repr=False
    )

    @property
    def name(self) -> str:
        return self.function.name

    @property
    def warp_size(self) -> int:
        return self.function.warp_size

    @cached_property
    def cost_table(self) -> FunctionCostTable:
        return build_cost_table(self.function, self.target.machine)

    @cached_property
    def array_blocks(self) -> Optional[Dict[str, tuple]]:
        """Batched lowering (``machine.array_backend``): per block a
        batch has reached, the function printed for all its warps at
        once with its static cost (the shape of :meth:`blocks`), plus
        what the batches did. ``None`` when the loading executor does
        not batch (the bare :class:`Interpreter`, a sanitized device)
        or the function contains atomics. Settled when the execution
        manager first asks, not at load: a compile loads every width
        of every kernel, batches only ever ask for the widest of a
        launched one."""
        return self.target.array_lowering(self)

    @cached_property
    def read_once(self) -> frozenset:
        """Slots of the registers defined once and read once in the
        whole function (the IR is not SSA, so both are counted): what
        such a register holds concerns its one reader only. Counted
        when the first block that asks is lowered."""
        defined: Dict[str, int] = {}
        used: Dict[str, int] = {}
        for instruction in self.function.instructions():
            name = getattr(instruction.dst, "name", None)
            defined[name] = defined.get(name, 0) + 1
            for value in instruction.uses():
                name = getattr(value, "name", None)
                used[name] = used.get(name, 0) + 1
        return frozenset(
            self.register_slots[name]
            for name, count in defined.items()
            if name is not None and count == 1 and used.get(name) == 1
        )

    def block_cost(self, label: str) -> ExecutionStats:
        """Aggregated static cost of block ``label`` (body plus
        terminator), priced on first request."""
        cost = self.block_costs.get(label)
        if cost is None:
            cost = self.block_costs[label] = aggregate_block_cost(
                self.function.blocks[label], self.cost_table
            )
        return cost

    def blocks(self, access: str) -> "_BlockTable":
        """The lazily filled ``label -> (code, costs...)`` table of
        code generated with memory-access template ``access``."""
        table = self.code.get(access)
        if table is None:
            table = self.code[access] = _BlockTable(self, access)
        return table

    def block_source(self, label: str) -> str:
        """Source of the function generated for block ``label`` (which
        is lowered now if no warp has reached it yet): one or more
        lines per IR instruction, the first ending in the instruction
        as a comment."""
        return self.blocks(self.target.access())[label][0].source

    def batch_source(self, label: str) -> Optional[str]:
        """Source of the function block ``label`` runs a batch of
        warps through (printed now if no batch has reached it), or
        None where there is none: the batch printer declines the block
        or the executable has no batched lowering."""
        blocks = self.array_blocks
        entry = None if blocks is None else blocks[label]
        return None if entry is None else entry[0].source


@dataclass
class Continuation:
    """Mid-kernel hand-off from the array backend to the sequential path.

    When a batched warp leaves the uniform array region (at a
    terminator the batch's warps disagree on, or at a block the batch
    printer declines), the batch runner builds one Continuation per
    warp: the label the warp continues from, its register rows
    extracted from the batched register file, and the counters the
    batched prefix already accumulated. ``execute`` seeds a warp state
    with them and resumes ``run`` from the label.
    """

    label: str
    #: What the batched prefix accumulated (one record per batch,
    #: shared by its warps' continuations).
    stats: ExecutionStats
    #: ``(slot, value)`` pairs to transplant into the register file.
    registers: Tuple = ()


class Interpreter:
    """Executes IR functions against a memory system, generating each
    block's code on its first entry."""

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
        #: memory instructions are printed against its checked
        #: ``guest_*`` entry points (see :meth:`access`).
        self.sanitizer = sanitizer
        self._namespace = _code_namespace(memory, sanitizer)

    # -- lowering ("code generation") ------------------------------------

    def load_function(self, function: IRFunction) -> ExecutableFunction:
        """Number ``function``'s registers; nothing is lowered until a
        warp enters a block (see :class:`ExecutableFunction`). The
        translation cache keeps the returned executable, so a block is
        lowered once per specialization, not per launch."""
        slots = function.register_slots(refresh=True)
        return ExecutableFunction(
            function=function,
            target=self,
            register_slots=slots,
            register_count=len(slots),
            entry_label=function.entry_label,
        )

    def array_lowering(self, executable: ExecutableFunction):
        """``executable.array_blocks``: none on the sequential base."""
        return None

    def access(self) -> str:
        """The memory-access template generated code must run with
        *right now*: ``"checked"`` on a sanitized device; ``"late"``
        (calls looked up on the memory system per access) while a
        fault injector has one of ``MemorySystem.PATCH_POINTS``
        patched; ``"inline"`` otherwise. Asked per warp execution, so
        arming or restoring an injector takes effect whenever it
        happens relative to lowering — inline code never captures a
        patched method, late code is only run while a patch exists."""
        if self.sanitizer is not None:
            return "checked"
        return "late" if self.memory.patched() else "inline"

    def lower_block(
        self, executable: ExecutableFunction, label: str, access: str
    ) -> Callable:
        """Generate the Python function of block ``label`` with
        template ``access``: ``code(state)`` returns the next block
        label (str) or a resume status (int).
        ``code.line_index[lineno]`` is the index of the instruction a
        source line belongs to, ``code.source`` the text."""
        block = executable.function.blocks[label]
        printer = self.printer(executable, block, access)
        # (a block without a terminator has no lowering: None has none)
        for index, instruction in enumerate(
            [*block.instructions, block.terminator]
        ):
            printer.instruction(index, instruction)
        suffix = "" if access == "inline" else f":{access}"
        return printer.function(
            f"<repro:{executable.name}/ws{executable.warp_size}/"
            f"{label}{suffix}>"
        )

    def printer(self, executable, block, access: str) -> "_BlockEmitter":
        """The printer of ``block`` for template ``access``."""
        return _WarpPrinter(executable, block, access, dict(self._namespace))

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

        ``continuation`` resumes sequential execution mid-kernel: the
        array backend hands over a :class:`Continuation` when a batched
        warp leaves the uniform region, carrying the register rows and
        accumulated counters of the batched prefix.
        """
        if state is None:
            state = self.new_state()
        state.reset(executable, warp, param_base)
        if state.scoped:
            status = state.run(continuation)
        else:
            state.access = self.access()
            with guest_errstate():
                status = state.run(continuation)
        if stats is not None:
            stats.merge(state.stats)
        return status


class _WarpState:
    """Mutable state of one warp execution.

    Instances are reusable: :meth:`reset` rebinds them to a new
    (executable, warp) pair, so execution managers pool one state
    object instead of reallocating registers and statistics per warp.
    Generated block functions read and write ``regs``, a flat list
    indexed by the executable's register slots.
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
        "access",
        "scoped",
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
        #: Memory-access template of the code to run (set per
        #: execution from :meth:`Interpreter.access`).
        self.access = "inline"
        #: True while the state's owner (an execution manager, for a
        #: run) holds :func:`guest_errstate` and has settled ``access``:
        #: :meth:`Interpreter.execute` then does neither per warp.
        self.scoped = False

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

    def run(self, continuation: Optional["Continuation"] = None) -> int:
        """The run loop: one generated function call and one statistics
        update per block executed; looking a label up generates its
        function the first time. Cycle/flop sums accumulate in locals
        and flush to ``stats`` lazily — before any precise block (whose
        code observes the counters mid-block via ``%clock`` and charges
        its instructions itself) and at exit.
        ``continuation`` resumes mid-kernel (the array backend's
        fallback): the statistics start from the batched prefix's, the
        warp's register rows are transplanted, and the loop enters at
        the continuation's label."""
        executable = self.executable
        blocks = executable.blocks(self.access)
        label = executable.entry_label
        stats = self.stats
        if continuation is not None:
            stats.merge(continuation.stats)  # onto zero: a copy
            regs = self.regs
            for slot, value in continuation.registers:
                regs[slot] = value
            label = continuation.label
        executed = stats.instructions
        limit = self.limit
        deadline = self.deadline
        next_deadline_check = _DEADLINE_CHECK_STRIDE
        kernel_cycles = yield_cycles = flops = 0
        code = None
        try:
            while True:
                (
                    code,
                    block_kernel_cycles,
                    block_yield_cycles,
                    block_flops,
                    count,
                    precise,
                ) = blocks[label]
                if precise:
                    stats.kernel_cycles += kernel_cycles
                    stats.yield_cycles += yield_cycles
                    stats.flops += flops
                    kernel_cycles = yield_cycles = flops = 0
                result = code(self)
                kernel_cycles += block_kernel_cycles
                yield_cycles += block_yield_cycles
                flops += block_flops
                executed += count
                if executed > limit:
                    raise InstructionLimitExceeded(
                        f"{executable.name}: instruction limit "
                        f"exceeded ({limit}); possible infinite loop"
                    )
                if deadline is not None and executed >= next_deadline_check:
                    if time.monotonic() > deadline:
                        raise DeadlineExceeded(
                            f"{executable.name}: wall-clock deadline "
                            f"exceeded mid-warp"
                        )
                    next_deadline_check = (
                        executed + _DEADLINE_CHECK_STRIDE
                    )
                if type(result) is int:
                    return result
                label = result
        except ExecutionError as fault:
            _locate_fault(fault, self.function, label, code)
            raise
        finally:
            # On a fault too: a trapped launch still reports its
            # partial cycle/instruction work.
            stats.kernel_cycles += kernel_cycles
            stats.yield_cycles += yield_cycles
            stats.flops += flops
            stats.instructions = executed


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


#: The PTX shift clamp, stated once (the hardware shifter clamps, it
#: does not wrap): ``op -> (kind, operator, flush)``. The operand is
#: shifted as the ``kind`` integer of its width ("": as typed) by
#: ``min(amount, width - 1)``, amounts being unsigned; an amount >= the
#: width then gives 0 where ``flush`` — for ``ashr`` the clamped shift
#: already is the answer, the sign fill. Applied lane by lane by
#: :func:`_clamped_shift` (register amounts; the reference oracle) and
#: ahead of time by :meth:`_BlockEmitter.constant_shift`.
_SHIFT_RULE = {
    "shl": ("", "<<", True),
    "lshr": ("u", ">>", True),
    "ashr": ("i", ">>", False),
}


def _shifted_as(kind: str, dtype: DataType):
    """The numpy dtype a ``dtype`` operand is shifted as."""
    return np.dtype(f"{kind}{dtype.size}") if kind else dtype.numpy_dtype


def _clamped_shift(op: str):
    """``f(a, b, dtype)`` applying :data:`_SHIFT_RULE` lane by lane."""
    kind, operator, flush = _SHIFT_RULE[op]
    shift = _expression_impl("{a} " + operator + " {b}", "a, b")

    def implementation(a, b, dtype: DataType):
        bits, shifted_as = dtype.size * 8, _shifted_as(kind, dtype)
        amount = _shift_amount(b)
        safe = np.minimum(amount, np.uint64(bits - 1)).astype(shifted_as)
        result = shift(np.asarray(a).view(shifted_as) if kind else a, safe)
        if flush:
            result = np.where(amount >= bits, np.zeros_like(result), result)
        result = result.view(dtype.numpy_dtype)
        return result if result.ndim else result[()]

    return implementation


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
    # 64-bit: exact Python integers, over operands of any (broadcast)
    # shape.
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    values = [
        ((x * y) >> bits) & ((1 << bits) - 1)
        for x, y in zip(a.ravel().tolist(), b.ravel().tolist())
    ]
    # The masked values fit uint64 exactly; left to infer a dtype,
    # numpy promotes lanes on either side of 2**63 to float64.
    result = np.array(values, dtype=np.uint64).astype(dtype.numpy_dtype)
    return result.reshape(a.shape) if a.size > 1 else result[0]


def _expression_impl(template: str, parameters: str):
    """The callable of an operator whose semantics are one expression:
    built from the same template the block emitter inlines, so the two
    cannot drift apart."""
    return eval(
        f"lambda {parameters}: " + template.format(a="a", b="b"),
        {"np": np},
    )


#: Binary operators that are a single expression over typed operands.
_BINARY_EXPR = {
    "add": "{a} + {b}",
    "sub": "{a} - {b}",
    "mul": "{a} * {b}",
    "min": "np.minimum({a}, {b})",
    "max": "np.maximum({a}, {b})",
}

#: ``op -> (bitwise ufunc, logical ufunc)``: ``and``/``or``/``xor``
#: are logical on predicates and bitwise on everything else, which
#: every lowering but the reference decides statically.
_BITWISE = {
    "and": (np.bitwise_and, np.logical_and),
    "or": (np.bitwise_or, np.logical_or),
    "xor": (np.bitwise_xor, np.logical_xor),
}


def _logical_or_bitwise(numpy_bitop, numpy_logicalop):
    def implementation(a, b, dtype):
        if dtype.is_predicate:
            return numpy_logicalop(a, b)
        return numpy_bitop(a, b)

    return implementation


_BINARY_IMPL = {
    **{
        op: _expression_impl(template, "a, b, dt")
        for op, template in _BINARY_EXPR.items()
    },
    **{op: _logical_or_bitwise(*pair) for op, pair in _BITWISE.items()},
    "mulhi": _mulhi,
    "div": _int_div,
    "rem": _int_rem,
    **{op: _clamped_shift(op) for op in _SHIFT_RULE},
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


#: Comparisons that are a single expression over typed operands.
_COMPARE_EXPR = {
    "eq": "{a} == {b}",
    "ne": "{a} != {b}",
    "lt": "{a} < {b}",
    "le": "{a} <= {b}",
    "gt": "{a} > {b}",
    "ge": "{a} >= {b}",
}

_COMPARE_IMPL = {
    **{
        op: _expression_impl(template, "a, b")
        for op, template in _COMPARE_EXPR.items()
    },
    "ltu": _unordered(lambda a, b: a < b),
    "leu": _unordered(lambda a, b: a <= b),
    "gtu": _unordered(lambda a, b: a > b),
    "geu": _unordered(lambda a, b: a >= b),
    "num": lambda a, b: ~(np.isnan(a) | np.isnan(b)),
    "nan": lambda a, b: np.isnan(a) | np.isnan(b),
}


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


# -- operand values ----------------------------------------------------------


def _machine_constant(value: Constant):
    """Pre-convert an IR constant to its machine (NumPy) value."""
    return value.dtype.numpy_dtype.type(value.value)


def _coerce(fetched, wanted):
    """A register value as an instruction of numpy dtype ``wanted``
    sees it. PTX registers are untyped bit containers and the
    instruction's type imposes the interpretation (``max.s32`` on a
    ``.u32`` register): same-width values are reinterpreted, others
    converted; booleans and values with no dtype pass through. (An
    instruction typed ``.pred`` reads its operands raw.)"""
    current = getattr(fetched, "dtype", None)
    if current is None or current == wanted or current == np.bool_:
        return fetched
    if current.itemsize == wanted.itemsize:
        return fetched.view(wanted)
    return fetched.astype(wanted)


def _typed_constant(value: Constant, dtype: DataType):
    """A constant as an instruction typed ``dtype`` sees it, computed
    once at lowering time."""
    fetched = _machine_constant(value)
    if dtype.is_predicate:
        return fetched
    return _coerce(fetched, dtype.numpy_dtype)


def _reads_clock(block) -> bool:
    """Blocks that observe the cycle counter mid-block (``%clock``)
    are *precise*: the per-block cost sums would lag what the guest
    should see, so their code charges each instruction as it executes
    (and they have no batched array lowering)."""
    return any(
        isinstance(instruction, ContextRead)
        and instruction.field_name == "clock"
        for instruction in block.instructions
    )


# ---------------------------------------------------------------------------
# The block emitter (the lowering, run on a block's first entry)
# ---------------------------------------------------------------------------
#
# Everything static about a block is resolved while it is printed:
# register slots, machine-value constants, the dtype each operand is
# read as, the address-space dispatch and the memory-access template.
# What remains per execution is what genuinely varies per warp: the
# register file, the thread contexts and the parameter segment base.


def _code(numpy_dtype) -> str:
    """Short name of a numpy dtype inside generated identifiers
    (``f4``, ``u8``, ``b1``)."""
    return numpy_dtype.str[1:]


def _code_namespace(memory: MemorySystem, sanitizer) -> dict:
    """The globals every function generated against ``memory`` starts
    from — the accessors its memory templates are printed against. Per
    :class:`DataType`: ``D_<name>`` the type itself; per numpy dtype
    ``W_<code>`` the dtype, ``T_<code>`` its scalar type and
    ``V_<code>`` a typed view of the arena, so an aligned guest access
    is one element index (one fancy index for a batch, whose inline
    check reduces its addresses with ``lowest`` and ``union``); the
    ``*_unaligned`` functions are the byte-wise paths of an access that
    is not."""
    data = memory.data

    def load_unaligned(address, numpy_dtype):
        return data[address : address + numpy_dtype.itemsize].view(
            numpy_dtype
        )[0]

    def store_unaligned(address, value):
        data[address : address + value.nbytes] = np.frombuffer(
            value.tobytes(), dtype=np.uint8
        )

    def gather_unaligned(addresses, numpy_dtype):
        return np.array([
            load_unaligned(address, numpy_dtype)
            for address in addresses.tolist()
        ])

    def scatter_unaligned(addresses, values):
        # In index order: the last writer of an address wins, as the
        # warps of the batch would have stored in sequence.
        values = np.broadcast_to(values, addresses.shape)
        for address, value in zip(addresses.tolist(), values):
            store_unaligned(address, value)

    namespace = {
        "np": np,
        "ndarray": np.ndarray,
        "coerce": _coerce,
        "ExecutionError": ExecutionError,
        "memory": memory,
        "san": sanitizer,
        "DATA": data,
        "load_unaligned": load_unaligned,
        "store_unaligned": store_unaligned,
        "gather_unaligned": gather_unaligned,
        "scatter_unaligned": scatter_unaligned,
        "lowest": np.minimum.reduce,
        "union": np.bitwise_or.reduce,
    }
    for dtype in DataType:
        numpy_dtype = dtype.numpy_dtype
        code = _code(numpy_dtype)
        usable = memory.size - memory.size % numpy_dtype.itemsize
        namespace[f"D_{dtype.name}"] = dtype
        namespace[f"W_{code}"] = numpy_dtype
        namespace[f"T_{code}"] = numpy_dtype.type
        namespace[f"V_{code}"] = data[:usable].view(numpy_dtype)
    return namespace


class _BlockTable(dict):
    """``label -> (code, kernel_cycles, yield_cycles, flops,
    instructions, precise)`` for one executable and access template,
    filled as warps first reach each label: ``code`` is the block's
    generated function, the middle fields the aggregated static cost
    the run loop adds per execution, ``precise`` marks blocks whose
    code charges its body instructions itself (then only the
    terminator's cycles are block-level)."""

    def __init__(self, executable: ExecutableFunction, access: str):
        super().__init__()
        self.executable = executable
        self.access = access

    def __missing__(self, label: str) -> tuple:
        executable = self.executable
        block = executable.function.blocks[label]
        code = executable.target.lower_block(executable, label, self.access)
        cost = executable.block_cost(label)
        precise = _reads_clock(block)
        if precise:
            terminator = block.terminator
            cycles = executable.cost_table.cost_of(terminator).cycles
            overhead = getattr(terminator, "overhead", False)
            charged = (0, cycles, 0) if overhead else (cycles, 0, 0)
        else:
            charged = (cost.kernel_cycles, cost.yield_cycles, cost.flops)
        entry = self[label] = (code, *charged, cost.instructions, precise)
        return entry


class _BlockEmitter:
    """What the instructions of one basic block compute, printed as a
    Python function by one of two printers.

    One opcode table (:data:`_EMITTERS`) is driven over the block. This
    class is what the printers share: the variable manager between the
    instructions — which registers already live in a local
    (``r<slot>``), what dtype each local is known to carry, which
    derived values (``int()`` of an address register, a reinterpreted
    view, a segment base) were already computed in this straight-line
    code and can be reused — the typed-read rule of :func:`_coerce`
    resolved ahead of time, the constant pool, and every operator that
    is an expression over its operands (the ALU, the address, the
    scalar memory template). How a *value* is laid out is the
    printer's: :class:`_WarpPrinter` prints one warp (numpy scalars and
    ``(ws,)`` arrays), ``array_backend._BatchPrinter`` every warp of a
    batch at once (``(B,)`` and ``(B, ws)`` arrays).
    """

    #: the generated function's first lines (they belong to no
    #: instruction), set by each printer
    header: Tuple[str, ...] = ()
    #: How the inline memory template reads for one warp: what one
    #: scalar access adds to ``load_count``/``store_count``, the local
    #: holding the address's low bits, the byte-wise accessors of an
    #: unaligned address, a loaded predicate.
    count = "1"
    low = "a"
    unaligned = ("load_unaligned", "store_unaligned")
    loaded_flag = "bool(DATA[a])"

    def __init__(self, executable, block, namespace: dict):
        self.executable = executable
        self.slots = executable.register_slots
        self.label = block.label
        self.namespace = namespace
        self.lines: List[str] = []
        #: per source line, the index of the instruction it belongs to
        self.line_index: List[int] = []
        self.index = 0
        self.comment = ""
        #: slots whose register already has a local in this block
        self.loaded: set = set()
        #: slot -> (numpy dtype, exact). The local *passes as* that
        #: dtype — an instruction of the type reads it as it is — and
        #: when ``exact`` it is known to carry exactly it, so a
        #: differently typed reader is resolved statically.
        self.known: Dict[int, tuple] = {}
        #: slots whose local is known to be a 1-d array, and of those
        #: the ones an ``insertelement`` of this block allocated
        self.vectors: set = set()
        self.fresh: set = set()
        #: names of locals bound so far by :meth:`bind`
        self.bound: set = set()
        #: slot -> bound names derived from the slot's current value
        self.derived: Dict[int, List[str]] = {}
        self.constants: Dict[object, str] = {}

    # -- source ------------------------------------------------------------

    def instruction(self, index: int, instruction) -> None:
        """Print ``instruction`` (``index`` is its trap PC)."""
        emit = getattr(self, _EMITTERS.get(type(instruction), ""), None)
        if emit is None:
            raise ExecutionError(
                f"no lowering for instruction {instruction!r}"
            )
        self.index = index
        self.comment = f"  # {index}: {instruction}"
        emit(instruction)

    def emit(self, text: str) -> None:
        self.lines.append(f"    {text}{self.comment}")
        self.line_index.append(self.index)
        self.comment = ""

    def function(self, filename: str) -> Callable:
        """Compile the printed block; see ``Interpreter.lower_block``."""
        source = "\n".join([*self.header, *self.lines, ""])
        exec(compile(source, filename, "exec"), self.namespace)
        code = self.namespace["block"]
        # Line numbers are 1-based and the header lines belong to no
        # instruction.
        code.line_index = (-1, *(-1 for _ in self.header), *self.line_index)
        code.source = source
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        return code

    # -- the variable manager ---------------------------------------------

    def constant(self, value) -> str:
        """Name of ``value`` in the generated function's globals."""
        if isinstance(value, np.generic):
            key = (value.dtype, value.tobytes())
        else:
            key = id(value)
        name = self.constants.get(key)
        if name is None:
            name = self.constants[key] = f"k{len(self.constants)}"
            self.namespace[name] = value
        return name

    def bind(self, name: str, expression: str, slot=None) -> str:
        """Local ``name`` holding ``expression``, computed at its first
        use in the block; with ``slot``, until that register is
        redefined."""
        if name not in self.bound:
            self.emit(f"{name} = {expression}")
            self.bound.add(name)
            if slot is not None:
                self.derived.setdefault(slot, []).append(name)
        return name

    def raw(self, value) -> str:
        """Operand as stored (no reinterpretation)."""
        if isinstance(value, Constant):
            return self.constant(_machine_constant(value))
        slot = self.slots[value.name]
        if slot not in self.loaded:
            # Live into the block: read the register file once; a
            # register nobody wrote yet reads as a typed zero.
            self.loaded.add(slot)
            self.live_in(f"r{slot}", slot, value)
        return f"r{slot}"

    def operand(self, value) -> str:
        """Operand of an elementwise operator that reads it as stored."""
        return self.raw(value)

    def typed(self, value, dtype: DataType) -> Tuple[str, bool]:
        """Operand as an instruction typed ``dtype`` reads it, and
        whether it is then known to carry exactly that dtype (see
        :func:`_coerce` for the rule this resolves ahead of time)."""
        wanted = dtype.numpy_dtype
        if isinstance(value, Constant):
            constant = _typed_constant(value, dtype)
            return self.constant(constant), constant.dtype == wanted
        name = self.raw(value)
        if dtype.is_predicate:
            return name, False
        slot = self.slots[value.name]
        current, exact = self.known.get(slot, (None, False))
        if current is not None and current == wanted:
            return name, exact
        code = _code(wanted)
        if exact and current == np.bool_:
            return name, False
        if exact:
            cast = "view" if current.itemsize == wanted.itemsize else "astype"
            expression = f"{name}.{cast}(W_{code})"
        else:
            expression = (
                f"{name} if {self.carries(name, value, code)} "
                f"else coerce({name}, W_{code})"
            )
        return self.bind(f"{name}_{code}", expression, slot), exact

    def exactly(self, value, wanted) -> bool:
        """True when ``value`` is known to carry exactly ``wanted``."""
        if isinstance(value, Constant):
            return value.dtype.numpy_dtype == wanted
        return self.known.get(self.slots[value.name]) == (wanted, True)

    def slot(self, value) -> Optional[int]:
        """Slot of a register operand; None for a constant or undef."""
        return self.slots.get(getattr(value, "name", None))

    def integer(self, value) -> str:
        """Operand as a Python int (addresses, switch values)."""
        if isinstance(value, Constant):
            return f"({int(_machine_constant(value))})"
        slot = self.slots[value.name]
        return self.bind(f"i{slot}", f"int({self.raw(value)})", slot)

    def define(
        self, register, expression, dtype=None, exact=False, vector=False
    ) -> None:
        """Assign ``register``: the local, and through to the register
        file so a trap at any later instruction dumps it. ``dtype``
        (with ``exact``) is what the value is known to carry,
        ``vector`` that it is a 1-d array."""
        slot = self.slots[register.name]
        self.emit(f"regs[{slot}] = r{slot} = {expression}")
        self.loaded.add(slot)
        for name in self.derived.pop(slot, ()):
            self.bound.discard(name)
        self.fresh.discard(slot)
        (self.vectors.add if vector else self.vectors.discard)(slot)
        if dtype is None:
            self.known.pop(slot, None)
        else:
            self.known[slot] = (dtype, exact)

    def result(self, dtype: DataType, exact: bool, *operands) -> tuple:
        """``define``'s arguments for a value produced as ``dtype``
        (predicate-typed instructions read raw and load Python bools,
        so they promise none) by an elementwise operator over
        ``operands``: a 1-d array when one of them is."""
        vector = any(self.slot(value) in self.vectors for value in operands)
        if dtype.is_predicate:
            return None, False, vector
        return dtype.numpy_dtype, exact, vector

    # -- ALU ------------------------------------------------------------------

    def binary(self, inst: BinaryOp) -> None:
        dtype = inst.dtype
        a, exact_a = self.typed(inst.a, dtype)
        b, exact_b = self.typed(inst.b, dtype)
        if inst.op in _SHIFT_RULE and isinstance(inst.b, Constant):
            expression = self.constant_shift(inst, a)
        elif inst.op in _BINARY_EXPR:
            expression = _BINARY_EXPR[inst.op].format(a=a, b=b)
        elif inst.op in _BITWISE:
            ufunc = _BITWISE[inst.op][dtype.is_predicate]
            expression = f"{self.constant(ufunc)}({a}, {b})"
        else:
            impl = self.constant(_BINARY_IMPL[inst.op])
            expression = f"{impl}({a}, {b}, D_{dtype.name})"
        self.define(
            inst.dst,
            expression,
            *self.result(dtype, exact_a and exact_b, inst.a, inst.b),
        )

    def constant_shift(self, inst: BinaryOp, a: str) -> str:
        """:data:`_SHIFT_RULE` resolved now, for a constant amount."""
        kind, operator, flush = _SHIFT_RULE[inst.op]
        bits, code = inst.dtype.size * 8, _code(inst.dtype.numpy_dtype)
        amount = int(_shift_amount(_typed_constant(inst.b, inst.dtype)))
        if flush and amount >= bits:
            return f"np.zeros_like({a}, dtype=W_{code})[()]"
        shifted_as = _shifted_as(kind, inst.dtype)
        by = self.constant(shifted_as.type(min(amount, bits - 1)))
        if shifted_as == inst.dtype.numpy_dtype:
            return f"{a} {operator} {by}"
        viewed = f"{a}.view(W_{_code(shifted_as)})"
        return f"({viewed} {operator} {by}).view(W_{code})"

    def unary(self, inst: UnaryOp) -> None:
        impl = _UNARY_IMPL.get(inst.op)
        if impl is None:
            raise ExecutionError(f"unknown unary op {inst.op}")
        dtype = inst.dtype
        a, exact = self.typed(inst.a, dtype)
        if inst.op != "mov":
            expression = f"{self.constant(impl)}({a}, D_{dtype.name})"
        elif inst.dst.width > 1:
            # A scalar moved into a vector register splats to its width.
            expression = self.splat(a, inst.dst.width, dtype.numpy_dtype)
        else:
            expression = a
        self.define(inst.dst, expression, *self.result(dtype, exact, inst.a))

    def fma(self, inst: FusedMultiplyAdd) -> None:
        dtype = inst.dtype
        a, exact_a = self.typed(inst.a, dtype)
        b, exact_b = self.typed(inst.b, dtype)
        c, exact_c = self.typed(inst.c, dtype)
        exact = exact_a and exact_b and exact_c
        expression = f"{a} * {b} + {c}"
        if exact and self.array_of(inst, inst.a, inst.b):
            # One dtype throughout, so adding into the fresh product
            # rounds exactly like the expression and saves an array.
            self.emit(f"t = {a} * {b}")
            self.emit(f"t += {c}")
            expression = "t"
        self.define(
            inst.dst,
            expression,
            *self.result(dtype, exact, inst.a, inst.b, inst.c),
        )

    def compare(self, inst: Compare) -> None:
        a, _ = self.typed(inst.a, inst.dtype)
        b, _ = self.typed(inst.b, inst.dtype)
        if inst.op in _COMPARE_EXPR:
            expression = _COMPARE_EXPR[inst.op].format(a=a, b=b)
        else:
            impl = self.constant(_COMPARE_IMPL[inst.op])
            expression = f"{impl}({a}, {b})"
        self.define(inst.dst, expression)

    def select(self, inst: Select) -> None:
        wanted = inst.dtype.numpy_dtype
        predicate = self.operand(inst.predicate)
        a, b = self.operand(inst.a), self.operand(inst.b)
        if self.array_of(inst, inst.predicate, inst.a, inst.b):
            expression = (
                f"np.where({predicate}, {a}, {b})"
                f".astype(W_{_code(wanted)})"
            )
        else:
            expression = f"{a} if {predicate} else {b}"
            if not (
                self.exactly(inst.a, wanted) and self.exactly(inst.b, wanted)
            ):
                expression = f"T_{_code(wanted)}({expression})"
        self.define(inst.dst, expression, wanted, True)

    def convert(self, inst: Convert) -> None:
        source, _ = self.typed(inst.src, inst.src_type)
        impl = self.constant(_convert_impl(inst))
        self.define(
            inst.dst,
            f"{impl}({source})[()]",
            *self.result(inst.dst_type, True, inst.src),
        )

    def intrinsic(self, inst: Intrinsic) -> None:
        impl = _INTRINSIC_IMPL.get(inst.name)
        if impl is None:
            raise ExecutionError(f"unknown intrinsic {inst.name}")
        wanted = inst.dtype.numpy_dtype
        argument = self.operand(inst.args[0])
        self.define(
            inst.dst,
            f"np.asarray({self.constant(impl)}({argument}))"
            f".astype(W_{_code(wanted)})[()]",
            wanted,
            True,
        )

    # -- memory ---------------------------------------------------------------
    #
    # Every memory instruction first computes its address into local
    # ``a``; the printer's guest_* methods then print the access itself.

    def address(self, inst) -> None:
        term = self.integer(inst.base)
        if inst.offset:
            term = f"{term} + {inst.offset}"
        space = inst.space
        if space is AddressSpace.param:
            term = f"{self.bind('param_base', 'state.param_base')} + {term}"
        elif space in (AddressSpace.shared, AddressSpace.local):
            term = f"{self.segment_base(space.value, inst.lane)} + {term}"
        elif space is not AddressSpace.global_:
            raise ExecutionError(f"unresolvable address space {space}")
        self.emit(f"a = {term}")

    def bounds(self, size) -> None:
        self.emit(
            f"if a < {_NULL_GUARD} or a + {size} > "
            f"{self.executable.target.memory.size}: memory._check(a, {size})"
        )

    def inline_load(self, inst) -> str:
        """The inline template of a scalar load from ``a``: its check
        and count printed, the value's expression returned."""
        dtype = inst.dtype
        size = dtype.size
        self.bounds(size)
        self.emit(f"memory.load_count += {self.count}")
        if dtype.is_predicate:
            return self.loaded_flag
        code = _code(dtype.numpy_dtype)
        if size == 1:
            return f"V_{code}[a]"
        return (
            f"V_{code}[a >> {size.bit_length() - 1}] "
            f"if not {self.low} & {size - 1} "
            f"else {self.unaligned[0]}(a, W_{code})"
        )

    def inline_store(self, inst, value: str, exact: bool) -> None:
        """The inline template of the scalar store of ``value`` (known
        to carry the instruction's dtype when ``exact``) to ``a``."""
        dtype = inst.dtype
        size = dtype.size
        self.bounds(size)
        self.emit(f"memory.store_count += {self.count}")
        if dtype.is_predicate:
            self.emit(f"DATA[a] = {self.stored_flag(value)}")
            return
        code = _code(dtype.numpy_dtype)
        if not exact:
            value = self.converted(value, code)
        if size == 1:
            self.emit(f"V_{code}[a] = {value}")
            return
        self.emit(
            f"if {self.low} & {size - 1}: {self.unaligned[1]}(a, {value})"
        )
        self.emit(f"else: V_{code}[a >> {size.bit_length() - 1}] = {value}")

    def load(self, inst: Load) -> None:
        self.address(inst)
        # A load returns exactly its dtype (a predicate, a Python bool).
        self.define(
            inst.dst, self.guest_load(inst), *self.result(inst.dtype, True)
        )

    def store(self, inst: Store) -> None:
        value = self.raw(inst.value)
        self.address(inst)
        self.guest_store(
            inst, value, self.exactly(inst.value, inst.dtype.numpy_dtype)
        )

    # -- thread context -------------------------------------------------------

    def context_read(self, inst: ContextRead) -> None:
        wanted = inst.dtype.numpy_dtype
        if inst.field_name == "laneid":
            expression = self.constant(wanted.type(inst.lane))
        else:
            # A launch coordinate is (attribute, axis); anything else
            # the printer knows by its name.
            name, axis = _CONTEXT_COORDINATES.get(
                inst.field_name, (inst.field_name, None)
            )
            expression = self.context_field(
                name, axis, inst.lane, _code(wanted)
            )
        self.define(inst.dst, expression, wanted, True)

    # -- vector packing -------------------------------------------------------

    def insert(self, inst: InsertElement) -> None:
        wanted = inst.dst.dtype.numpy_dtype
        code, width = _code(wanted), inst.dst.width
        target, slot = "t", self.slot(inst.src)
        if inst.src is None:
            self.emit(f"t = np.zeros({self.shape(width)}, dtype=W_{code})")
        elif (
            slot in self.fresh
            and slot in self.executable.read_once
            and self.exactly(inst.src, wanted)
        ):
            # An array this execution of the block allocated, in a
            # register only this instruction reads: build on in place.
            target = self.raw(inst.src)
        else:
            self.copy_of(inst.src, width, wanted)
        self.emit(
            f"{self.lane(target, inst.index)} = {self.raw(inst.scalar)}"
        )
        self.define(inst.dst, target, wanted, True, vector=True)
        self.fresh.add(self.slots[inst.dst.name])

    # -- terminators ----------------------------------------------------------

    def branch(self, inst: Branch) -> None:
        self.emit(f"return {inst.target!r}")

    def yield_(self, inst: Yield) -> None:
        self.emit(f"return {int(inst.status)}")

    def exit(self, inst: Exit) -> None:
        self.emit(f"return {ResumeStatus.THREAD_EXIT}")


class _WarpPrinter(_BlockEmitter):
    """Prints a block as ``block(state)`` over one warp: a register is
    a numpy scalar or a ``(ws,)`` array (a vector register may hold
    either), written through to the register file so a trap dump is
    exact at every instruction, and memory goes through the access
    template the warp must run with (``Interpreter.access``)."""

    header = ("def block(state):", "    regs = state.regs")

    def __init__(self, executable, block, access: str, namespace: dict):
        super().__init__(executable, block, namespace)
        self.access = access
        self.precise = _reads_clock(block)

    def instruction(self, index: int, instruction) -> None:
        super().instruction(index, instruction)
        if self.precise and not instruction.is_terminator:
            cost = self.executable.cost_table.cost_of(instruction)
            stats = self.bind("stats", "state.stats")
            bucket = (
                "yield_cycles"
                if getattr(instruction, "overhead", False)
                else "kernel_cycles"
            )
            self.emit(f"{stats}.{bucket} += {cost.cycles}")
            if cost.flops:
                self.emit(f"{stats}.flops += {cost.flops}")

    # -- how one warp's values are laid out ---------------------------------

    def live_in(self, name: str, slot: int, value) -> None:
        self.emit(f"{name} = regs[{slot}]")
        code = _code(value.dtype.numpy_dtype)
        zero = (
            f"np.zeros({value.width}, dtype=W_{code})"
            if value.width > 1
            else self.constant(value.dtype.numpy_dtype.type(0))
        )
        self.emit(f"if {name} is None: {name} = regs[{slot}] = {zero}")

    def carries(self, name: str, value, code: str) -> str:
        """Condition under which local ``name`` already carries dtype
        ``code`` (the typed read's one inline guard)."""
        if value.width > 1:
            return f"type({name}) is ndarray and {name}.dtype is W_{code}"
        return f"type({name}) is T_{code}"

    def array_of(self, inst, *operands) -> bool:
        """Whether an operator over ``operands`` gives an array of the
        shape of ``inst``'s result (else a scalar)."""
        return inst.dst.width > 1

    def splat(self, name: str, width: int, wanted) -> str:
        return (
            f"{name} if isinstance({name}, ndarray) and {name}.ndim == 1 "
            f"else np.full({width}, {name}, dtype=W_{_code(wanted)})"
        )

    def shape(self, width: int) -> str:
        return str(width)

    def lane(self, name: str, index: int) -> str:
        return f"{name}[{index}]"

    def copy_of(self, source, width: int, wanted) -> None:
        """``t``: a fresh ``wanted`` array of what vector register
        ``source`` holds."""
        name, code = self.raw(source), _code(wanted)
        copy = (
            f"{name}.copy()"
            if self.exactly(source, wanted)
            else f"np.array({name}, dtype=W_{code})"
        )
        self.emit(f"t = {copy}")
        self.emit(f"if t.ndim == 0: t = np.full({width}, t, dtype=W_{code})")

    def segment_base(self, segment: str, lane: int) -> str:
        contexts = self.bind("contexts", "state.contexts")
        return self.bind(
            f"{segment}_base{lane}", f"{contexts}[{lane}].{segment}_base"
        )

    # -- memory, against the block's access template ------------------------

    def checked_arguments(self, inst) -> str:
        """The program-point arguments every sanitizer entry point
        takes after the access itself: shared?, label, index."""
        shared = inst.space is AddressSpace.shared
        return f"{shared}, {self.label!r}, {self.index}"

    def guest_load(self, inst, atomic: bool = False) -> str:
        """Expression of the scalar at ``a`` (after printing its check
        and count where the template has them inline)."""
        dtype = inst.dtype
        if self.access == "checked":
            return (
                f"san.guest_load(state, {inst.lane}, a, D_{dtype.name}, "
                f"{self.checked_arguments(inst)}"
                + (", atomic=True)" if atomic else ")")
            )
        if self.access == "late":
            return f"memory.load(D_{dtype.name}, a)"
        return self.inline_load(inst)

    def guest_store(
        self, inst, value: str, exact: bool, atomic: bool = False
    ) -> None:
        """Print the scalar store of ``value`` to ``a``."""
        dtype = inst.dtype
        if self.access == "checked":
            self.emit(
                f"san.guest_store(state, {inst.lane}, a, D_{dtype.name}, "
                f"{value}, {self.checked_arguments(inst)}"
                + (", atomic=True)" if atomic else ")")
            )
            return
        if self.access == "late":
            self.emit(f"memory.store(D_{dtype.name}, a, {value})")
            return
        self.inline_store(inst, value, exact)

    def stored_flag(self, value: str) -> str:
        return f"1 if {value} else 0"

    def converted(self, value: str, code: str) -> str:
        self.emit(f"t = {value}")
        self.emit(
            f"if type(t) is not T_{code}: t = np.asarray(t).astype(W_{code})"
        )
        return "t"

    def atomic(self, inst: AtomicRMW) -> None:
        impl = _ATOMIC_IMPL.get(inst.op)
        if impl is None:
            raise ExecutionError(f"unknown atomic op {inst.op}")
        operand = self.raw(inst.value)
        compare = self.raw(inst.compare) if inst.op == "cas" else "None"
        self.address(inst)
        self.emit(f"o = {self.guest_load(inst, atomic=True)}")
        self.guest_store(
            inst,
            f"{self.constant(impl)}(o, {operand}, {compare})",
            False,
            atomic=True,
        )
        if inst.dst is not None:
            self.define(inst.dst, "o", *self.result(inst.dtype, True))

    def vector_load(self, inst: VectorLoad) -> None:
        wanted = inst.dtype.numpy_dtype
        code, size, width = _code(wanted), wanted.itemsize, inst.dst.width
        self.address(inst)
        if self.access == "checked":
            expression = (
                f"san.guest_read_vector(state, {inst.lane}, a, W_{code}, "
                f"{width}, {self.checked_arguments(inst)})"
            )
        elif self.access == "late":
            expression = f"memory.read_array(a, W_{code}, {width})"
        else:
            self.bounds(size * width)
            self.emit(f"memory.load_count += {width}")
            expression = (
                f"DATA[a:a + {size * width}].view(W_{code}).copy()"
            )
            if size > 1:
                shift = size.bit_length() - 1
                expression = (
                    f"V_{code}[a >> {shift}:(a >> {shift}) + {width}].copy() "
                    f"if not a & {size - 1} else {expression}"
                )
        self.define(inst.dst, expression, wanted, True, vector=True)

    def vector_store(self, inst: VectorStore) -> None:
        wanted = inst.dtype.numpy_dtype
        code, size = _code(wanted), wanted.itemsize
        self.emit(f"t = np.asarray({self.raw(inst.value)}, dtype=W_{code})")
        self.emit(
            f"if t.ndim == 0: t = np.full({self.executable.warp_size}, t, "
            f"dtype=W_{code})"
        )
        self.address(inst)
        if self.access == "checked":
            self.emit(
                f"san.guest_write_vector(state, {inst.lane}, a, t, "
                f"{self.checked_arguments(inst)})"
            )
        elif self.access == "late":
            self.emit("memory.write_array(a, t)")
        else:
            self.bounds("t.nbytes")
            shift = size.bit_length() - 1
            self.emit(f"if a & {size - 1}: store_unaligned(a, t)")
            self.emit(
                f"else: V_{code}[a >> {shift}:(a >> {shift}) + t.size] = t"
            )
            self.emit("memory.store_count += t.size")

    # -- thread context -------------------------------------------------------

    def context_field(self, name: str, axis, lane: int, code: str) -> str:
        convert = f"T_{code}"
        if name == "warpid":
            return f"{convert}(state.warp.warp_id)"
        if name == "clock":
            stats = self.bind("stats", "state.stats")
            return f"{convert}({stats}.kernel_cycles + {stats}.yield_cycles)"
        if name != "resume_point" and axis is None:
            raise ExecutionError(f"unknown context field {name}")
        contexts = self.bind("contexts", "state.contexts")
        component = "" if axis is None else f"[{axis}]"
        return f"{convert}({contexts}[{lane}].{name}{component})"

    def context_write(self, inst: ContextWrite) -> None:
        if inst.field_name != "resume_point":
            raise ExecutionError(
                f"unwritable context field {inst.field_name}"
            )
        value = self.integer(inst.value)
        contexts = self.bind("contexts", "state.contexts")
        self.emit(f"{contexts}[{inst.lane}].resume_point = {value}")

    # -- vector packing -------------------------------------------------------

    def extract(self, inst: ExtractElement) -> None:
        vector = self.raw(inst.src)
        slot = self.slot(inst.src)
        lane = f"{vector}[{inst.index}]"
        if slot is None:  # a constant: the same scalar in every lane
            lane = vector
        elif slot not in self.vectors:
            # A vector register may hold a scalar: one shape guard per
            # value of the register, not one per lane.
            guard = self.bind(
                f"v{slot}",
                f"isinstance({vector}, ndarray) and {vector}.ndim == 1",
                slot,
            )
            lane = f"{lane} if {guard} else {vector}"
        self.define(inst.dst, lane, *self.known.get(slot, (None, False)))

    def broadcast(self, inst: Broadcast) -> None:
        wanted = inst.dst.dtype.numpy_dtype
        self.define(
            inst.dst,
            f"np.full({inst.dst.width}, {self.raw(inst.src)}, "
            f"dtype=W_{_code(wanted)})",
            wanted,
            True,
            vector=True,
        )

    def reduce(self, inst: Reduce) -> None:
        impl = _REDUCE_IMPL.get(inst.op)
        if impl is None:
            raise ExecutionError(f"unknown reduction {inst.op}")
        wanted = inst.dst.dtype.numpy_dtype
        self.define(
            inst.dst,
            f"T_{_code(wanted)}({self.constant(impl)}"
            f"(np.asarray({self.raw(inst.src)})))",
            wanted,
            True,
        )

    # -- terminators ----------------------------------------------------------

    def cond_branch(self, inst: CondBranch) -> None:
        self.emit(
            f"return {inst.taken!r} if {self.raw(inst.predicate)} "
            f"else {inst.fallthrough!r}"
        )

    def switch(self, inst: Switch) -> None:
        cases = self.constant(dict(inst.cases))
        self.emit(
            f"return {cases}.get({self.integer(inst.value)}, "
            f"{inst.default!r})"
        )

    def barrier(self, inst: BarrierTerm) -> None:
        self.emit(
            "raise ExecutionError('raw barrier terminator reached the "
            "machine; kernels must be specialized through the vectorizer "
            "first')"
        )


#: The opcode table: instruction type -> name of the method printing
#: it. A printer without the method has no form for the instruction
#: (the batch printer: atomics, barriers).
_EMITTERS = {
    BinaryOp: "binary",
    UnaryOp: "unary",
    FusedMultiplyAdd: "fma",
    Compare: "compare",
    Select: "select",
    Convert: "convert",
    Intrinsic: "intrinsic",
    Load: "load",
    Store: "store",
    VectorLoad: "vector_load",
    VectorStore: "vector_store",
    AtomicRMW: "atomic",
    ContextRead: "context_read",
    ContextWrite: "context_write",
    InsertElement: "insert",
    ExtractElement: "extract",
    Broadcast: "broadcast",
    Reduce: "reduce",
    Branch: "branch",
    CondBranch: "cond_branch",
    Switch: "switch",
    Yield: "yield_",
    Exit: "exit",
    BarrierTerm: "barrier",
}
