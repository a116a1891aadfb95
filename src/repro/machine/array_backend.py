"""Batched execution: the array lowering of the one executor.

The sequential path runs one warp at a time; where the execution
manager sees enough same-entry-point warps waiting (``MIN_BATCH_WARPS``)
and the record of earlier batches does not refuse, :class:`ArrayBackend`
— the executor every ``Device`` builds — runs *all of them at once*.
When a batch first reaches a basic
block the block is given a second, batched lowering — a per-opcode
translation table emitting numpy array operations, structured like a
staged binary translator: registers become ``(n_warps,)`` /
``(n_warps, warp_size)`` ndarrays, loads and stores become
gather/scatter on the arena, and control flow stays in the batched
region only while it is *uniform* across the batch. The points where
control leaves the region are explicit exits:

- a Yield/Exit terminator ends the batch with one status for all warps
  (every warp took the same exit handler, so one batched walk modeled
  exactly ``n_warps`` sequential executions);
- a divergent CondBranch/Switch, or a successor block with no array
  lowering (atomics, ``%clock``, an injected-fault harness), hands
  each warp a :class:`~repro.machine.interpreter.Continuation` and the
  sequential path finishes it sequentially — correctness is inherited,
  the array region only ever *accelerates* uniform prefixes.

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
too. Atomics therefore disable
the array lowering for the whole function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..ir.function import IRFunction
from ..ir.instructions import (
    AtomicRMW,
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
from ..ir.values import Constant, VirtualRegister
from ..ptx.types import AddressSpace
from .interpreter import (
    _BINARY_IMPL,
    _COMPARE_IMPL,
    _CONTEXT_COORDINATES,
    _DEADLINE_CHECK_STRIDE,
    _INTRINSIC_IMPL,
    _REDUCE_IMPL,
    _UNARY_IMPL,
    Continuation,
    ExecutableFunction,
    ExecutionStats,
    Interpreter,
    _annotate_fault,
    _convert_impl,
    _machine_constant,
    _mulhi,
    _reads_clock,
    _typed_constant,
    guest_errstate,
)


class _Unsupported(Exception):
    """Raised by the translation table for an instruction (or block)
    with no batched lowering; ``array_blocks`` caches the absence and
    the sequential path executes the block."""


# ---------------------------------------------------------------------------
# Batched machine state
# ---------------------------------------------------------------------------


class _BatchState:
    """Register file and context plumbing for one batched region walk.

    ``regs[slot]`` holds, per virtual register: ``None`` (unwritten),
    a ``(B,)`` array (one value per warp), a ``(B, width)`` array (one
    vector per warp), or — rarely — a numpy scalar shared by every
    warp. Lazy zero defaults mirror the sequential register file.
    """

    __slots__ = (
        "memory",
        "size",
        "warp_size",
        "regs",
        "param_base",
        "contexts",
        "warp_ids",
        "_coordinates",
        "_segment_bases",
    )

    def __init__(self, executable, warps, param_base, memory):
        self.memory = memory
        self.size = len(warps)
        self.warp_size = executable.warp_size
        self.regs: List[object] = [None] * executable.register_count
        self.param_base = param_base
        #: Per warp, the tuple of thread contexts (lane-indexed).
        self.contexts = [warp.contexts for warp in warps]
        self.warp_ids = np.array(
            [warp.warp_id for warp in warps], dtype=np.int64
        )
        self._coordinates: Dict[tuple, np.ndarray] = {}
        self._segment_bases: Dict[tuple, np.ndarray] = {}

    def coordinates(self, attribute: str, axis: int, lane: int):
        """``(B,)`` int64 array of a launch-geometry coordinate
        (immutable per batch, so cached across reads)."""
        key = (attribute, axis, lane)
        cached = self._coordinates.get(key)
        if cached is None:
            cached = np.array(
                [
                    getattr(contexts[lane], attribute)[axis]
                    for contexts in self.contexts
                ],
                dtype=np.int64,
            )
            self._coordinates[key] = cached
        return cached

    def segment_base(self, attribute: str, lane: int):
        """``(B,)`` int64 array of per-thread segment bases
        (``shared_base`` / ``local_base``)."""
        key = (attribute, lane)
        cached = self._segment_bases.get(key)
        if cached is None:
            cached = np.array(
                [
                    getattr(contexts[lane], attribute)
                    for contexts in self.contexts
                ],
                dtype=np.int64,
            )
            self._segment_bases[key] = cached
        return cached


# ---------------------------------------------------------------------------
# Operand readers (the batched twins of the emitter's raw / typed reads)
# ---------------------------------------------------------------------------


def _abatch_raw(value, slots):
    """Batched untyped operand accessor: ``read(bstate) -> array``."""
    if isinstance(value, Constant):
        constant = _machine_constant(value)

        def read(bstate, constant=constant):
            return constant

        return read
    slot = slots[value.name]
    numpy_dtype = value.dtype.numpy_dtype
    if value.width > 1:
        width = value.width

        def read(bstate):
            current = bstate.regs[slot]
            if current is None:
                current = bstate.regs[slot] = np.zeros(
                    (bstate.size, width), dtype=numpy_dtype
                )
            return current

    else:

        def read(bstate):
            current = bstate.regs[slot]
            if current is None:
                current = bstate.regs[slot] = np.zeros(
                    bstate.size, dtype=numpy_dtype
                )
            return current

    return read


def _abatch_typed(value, slots, dtype):
    """Batched typed accessor replicating ``fetch_typed``: view on
    equal itemsize, convert otherwise, predicates/bools pass through."""
    if isinstance(value, Constant):
        constant = _typed_constant(value, dtype)

        def read(bstate, constant=constant):
            return constant

        return read
    raw = _abatch_raw(value, slots)
    wanted = dtype.numpy_dtype
    predicate = dtype.is_predicate

    def read(bstate):
        fetched = raw(bstate)
        current = fetched.dtype
        if current == wanted:
            return fetched
        if predicate or current == np.bool_:
            return fetched
        if current.itemsize == wanted.itemsize:
            return fetched.view(wanted)
        return fetched.astype(wanted)

    return read


def _ensure_batched(result, bstate):
    """Expand an all-constant (scalar) result to its ``(B,)`` form; a
    result that already carries the batch axis passes through."""
    if getattr(result, "ndim", 0) >= 1:
        return result
    out = np.empty(bstate.size, dtype=np.asarray(result).dtype)
    out[...] = result
    return out


def _align2(a, b):
    """Give scalar-per-warp operands a broadcast axis when the other
    operand is a per-warp *vector*: ``(B,)`` reshapes to ``(B, 1)``
    only in mixed-rank combinations, so pure-scalar operations keep
    producing ``(B,)`` results (one value per warp, exactly like the
    sequential path's scalar results)."""
    a_ndim = getattr(a, "ndim", 0)
    b_ndim = getattr(b, "ndim", 0)
    if a_ndim == 2 or b_ndim == 2:
        if a_ndim == 1:
            a = a.reshape(-1, 1)
        if b_ndim == 1:
            b = b.reshape(-1, 1)
    return a, b


def _align3(a, b, c):
    ndims = (
        getattr(a, "ndim", 0),
        getattr(b, "ndim", 0),
        getattr(c, "ndim", 0),
    )
    if 2 in ndims:
        if ndims[0] == 1:
            a = a.reshape(-1, 1)
        if ndims[1] == 1:
            b = b.reshape(-1, 1)
        if ndims[2] == 1:
            c = c.reshape(-1, 1)
    return a, b, c


# ---------------------------------------------------------------------------
# Address computation (batched twin of the emitter's address())
# ---------------------------------------------------------------------------


def _abatch_address(inst, slots):
    """``addresses(bstate) -> (B,) int64 array`` with the address-space
    dispatch resolved statically, like the sequential reader."""
    space = inst.space
    offset = inst.offset
    lane = inst.lane
    base = inst.base
    if isinstance(base, Constant):
        static = int(_machine_constant(base)) + offset
        if space is AddressSpace.global_:
            return lambda bstate: np.full(
                bstate.size, static, dtype=np.int64
            )
        if space is AddressSpace.param:
            return lambda bstate: np.full(
                bstate.size, bstate.param_base + static, dtype=np.int64
            )
        if space is AddressSpace.shared:
            return lambda bstate: (
                bstate.segment_base("shared_base", lane) + static
            )
        if space is AddressSpace.local:
            return lambda bstate: (
                bstate.segment_base("local_base", lane) + static
            )
        raise _Unsupported()
    if base.width > 1:
        raise _Unsupported()
    read = _abatch_raw(base, slots)

    def bases(bstate):
        raw = np.asarray(read(bstate)).astype(np.int64)
        if raw.ndim == 0:
            raw = np.full(bstate.size, int(raw), dtype=np.int64)
        return raw

    if space is AddressSpace.global_:
        return lambda bstate: bases(bstate) + offset
    if space is AddressSpace.param:
        return lambda bstate: (
            bases(bstate) + (bstate.param_base + offset)
        )
    if space is AddressSpace.shared:
        return lambda bstate: (
            bstate.segment_base("shared_base", lane)
            + bases(bstate)
            + offset
        )
    if space is AddressSpace.local:
        return lambda bstate: (
            bstate.segment_base("local_base", lane)
            + bases(bstate)
            + offset
        )
    raise _Unsupported()


# ---------------------------------------------------------------------------
# The per-opcode translation table
# ---------------------------------------------------------------------------


def _batched_mulhi(a, b, dtype):
    """``_mulhi``'s 64-bit path converts through Python lists, which
    only handles 1-d input; flatten the batched operands through it."""
    a2, b2 = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    flat = _mulhi(a2.ravel(), b2.ravel(), dtype)
    return np.asarray(flat).reshape(a2.shape)


def _acompile_binary(inst: BinaryOp, slots):
    impl = _BINARY_IMPL[inst.op]
    dtype = inst.dtype
    if inst.op == "mulhi" and dtype.size == 8:
        impl = _batched_mulhi
    read_a = _abatch_typed(inst.a, slots, dtype)
    read_b = _abatch_typed(inst.b, slots, dtype)
    dst = slots[inst.dst.name]

    def op(bstate):
        a, b = _align2(read_a(bstate), read_b(bstate))
        bstate.regs[dst] = _ensure_batched(impl(a, b, dtype), bstate)

    return op


def _acompile_unary(inst: UnaryOp, slots):
    impl = _UNARY_IMPL.get(inst.op)
    if impl is None:
        raise _Unsupported()
    dtype = inst.dtype
    read_a = _abatch_typed(inst.a, slots, dtype)
    dst = slots[inst.dst.name]
    if inst.op == "mov" and inst.dst.width > 1:
        # A per-warp scalar moved into a vector register splats to
        # ``(batch, width)``.
        width = inst.dst.width
        numpy_dtype = dtype.numpy_dtype

        def op(bstate):
            value = read_a(bstate)
            if getattr(value, "ndim", 0) != 2:
                out = np.empty((bstate.size, width), dtype=numpy_dtype)
                if getattr(value, "ndim", 0) == 1:
                    out[...] = value.reshape(-1, 1)
                else:
                    out[...] = value
                value = out
            bstate.regs[dst] = value

    else:

        def op(bstate):
            bstate.regs[dst] = _ensure_batched(
                impl(read_a(bstate), dtype), bstate
            )

    return op


def _acompile_fma(inst: FusedMultiplyAdd, slots):
    dtype = inst.dtype
    read_a = _abatch_typed(inst.a, slots, dtype)
    read_b = _abatch_typed(inst.b, slots, dtype)
    read_c = _abatch_typed(inst.c, slots, dtype)
    dst = slots[inst.dst.name]
    operands = (inst.a, inst.b, inst.c)
    wanted = dtype.numpy_dtype

    def op(bstate):
        a, b, c = _align3(
            read_a(bstate), read_b(bstate), read_c(bstate)
        )
        result = a * b
        if (
            getattr(result, "shape", None) == getattr(c, "shape", ())
            and result.dtype == getattr(c, "dtype", None)
        ):
            result += c
        else:
            result = result + c
        bstate.regs[dst] = _ensure_batched(result, bstate)

    if all(isinstance(operand, Constant) for operand in operands):
        return op
    sa, sb, sc = (
        None if isinstance(operand, Constant) else slots[operand.name]
        for operand in operands
    )
    ca, cb, cc = (
        _typed_constant(operand, dtype)
        if isinstance(operand, Constant)
        else None
        for operand in operands
    )
    if any(
        constant is not None and constant.dtype != wanted
        for constant in (ca, cb, cc)
    ):
        return op

    def fast(bstate):
        # FMA chains are the hottest array ops (the Table-1 throughput
        # kernel is an unrolled FMA loop), so the common case — every
        # register operand written, carrying the instruction dtype, at
        # one rank — reads its slots directly and adds in place into
        # the fresh product; anything atypical (an unwritten register,
        # an aliased dtype from an untyped mov, a rank mismatch) takes
        # the generic closure. Constant operands are pre-typed numpy
        # scalars and broadcast against the register operands.
        regs = bstate.regs
        a = ca if sa is None else regs[sa]
        b = cb if sb is None else regs[sb]
        c = cc if sc is None else regs[sc]
        shape = None
        for value, slot in ((a, sa), (b, sb), (c, sc)):
            if slot is None:
                continue
            if value is None or value.dtype != wanted:
                return op(bstate)
            if shape is None:
                shape = value.shape
            elif value.shape != shape:
                return op(bstate)
        result = a * b
        result += c
        regs[dst] = result

    return fast


def _acompile_compare(inst: Compare, slots):
    impl = _COMPARE_IMPL[inst.op]
    read_a = _abatch_typed(inst.a, slots, inst.dtype)
    read_b = _abatch_typed(inst.b, slots, inst.dtype)
    dst = slots[inst.dst.name]

    def op(bstate):
        a, b = _align2(read_a(bstate), read_b(bstate))
        bstate.regs[dst] = _ensure_batched(impl(a, b), bstate)

    return op


def _acompile_select(inst: Select, slots):
    read_predicate = _abatch_raw(inst.predicate, slots)
    read_a = _abatch_raw(inst.a, slots)
    read_b = _abatch_raw(inst.b, slots)
    numpy_dtype = inst.dtype.numpy_dtype
    dst = slots[inst.dst.name]

    def op(bstate):
        predicate, a, b = _align3(
            read_predicate(bstate), read_a(bstate), read_b(bstate)
        )
        result = np.where(predicate, a, b).astype(numpy_dtype)
        bstate.regs[dst] = _ensure_batched(result, bstate)

    return op


def _acompile_convert(inst: Convert, slots):
    read = _abatch_typed(inst.src, slots, inst.src_type)
    convert = _convert_impl(inst)
    dst = slots[inst.dst.name]

    def op(bstate):
        bstate.regs[dst] = _ensure_batched(convert(read(bstate)), bstate)

    return op


def _acompile_intrinsic(inst: Intrinsic, slots):
    impl = _INTRINSIC_IMPL.get(inst.name)
    if impl is None:
        raise _Unsupported()
    read = _abatch_raw(inst.args[0], slots)
    numpy_dtype = inst.dtype.numpy_dtype
    dst = slots[inst.dst.name]

    def op(bstate):
        result = np.asarray(impl(read(bstate))).astype(numpy_dtype)
        bstate.regs[dst] = _ensure_batched(result, bstate)

    return op


def _acompile_load(inst: Load, slots):
    addresses = _abatch_address(inst, slots)
    dtype = inst.dtype
    dst = slots[inst.dst.name]

    def op(bstate):
        bstate.regs[dst] = bstate.memory.gather(
            dtype, addresses(bstate)
        )

    return op


def _acompile_store(inst: Store, slots):
    if (
        isinstance(inst.value, VirtualRegister)
        and inst.value.width > 1
    ):
        raise _Unsupported()
    addresses = _abatch_address(inst, slots)
    read_value = _abatch_raw(inst.value, slots)
    dtype = inst.dtype

    def op(bstate):
        bstate.memory.scatter(
            dtype, addresses(bstate), read_value(bstate)
        )

    return op


def _acompile_vector_load(inst: VectorLoad, slots):
    addresses = _abatch_address(inst, slots)
    numpy_dtype = np.dtype(inst.dtype.numpy_dtype)
    width = inst.dst.width
    size = numpy_dtype.itemsize
    shift = size.bit_length() - 1
    row = np.arange(width)
    dst = slots[inst.dst.name]

    def op(bstate):
        memory = bstate.memory
        base = addresses(bstate)
        if memory._patched("read_array"):
            out = np.empty((bstate.size, width), dtype=numpy_dtype)
            for position, address in enumerate(base):
                out[position] = memory.read_array(
                    int(address), numpy_dtype, width
                )
            bstate.regs[dst] = out
            return
        memory._check_batch(base, size * width)
        memory.load_count += base.size * width
        if not np.bitwise_or.reduce(base) & (size - 1):
            index = (base >> shift)[:, None] + row
            bstate.regs[dst] = memory.data.view(numpy_dtype)[index]
            return
        out = np.empty((bstate.size, width), dtype=numpy_dtype)
        for position, address in enumerate(base):
            out[position] = memory.data[
                address : address + size * width
            ].view(numpy_dtype)
        bstate.regs[dst] = out

    return op


def _acompile_vector_store(inst: VectorStore, slots):
    addresses = _abatch_address(inst, slots)
    read_value = _abatch_raw(inst.value, slots)
    numpy_dtype = np.dtype(inst.dtype.numpy_dtype)
    size = numpy_dtype.itemsize
    shift = size.bit_length() - 1

    def op(bstate):
        memory = bstate.memory
        base = addresses(bstate)
        values = np.asarray(read_value(bstate))
        if values.ndim == 2 and values.dtype == numpy_dtype:
            out = values
        elif values.ndim == 2:
            out = values.astype(numpy_dtype)
        else:
            # One scalar per warp (or one shared constant): every lane
            # of the stored vector carries it, as the sequential
            # path's np.full expansion does.
            out = np.empty(
                (bstate.size, bstate.warp_size), dtype=numpy_dtype
            )
            out[...] = (
                values.reshape(-1, 1) if values.ndim == 1 else values
            )
        width = out.shape[1]
        if memory._patched("write_array"):
            for position, address in enumerate(base):
                memory.write_array(int(address), out[position])
            return
        memory._check_batch(base, size * width)
        memory.store_count += base.size * width
        if not np.bitwise_or.reduce(base) & (size - 1):
            index = (base >> shift)[:, None] + np.arange(width)
            memory.data.view(numpy_dtype)[index] = out
            return
        for position, address in enumerate(base):
            memory.data[
                address : address + size * width
            ] = np.ascontiguousarray(out[position]).view(np.uint8)

    return op


def _acompile_context_read(inst: ContextRead, slots):
    lane = inst.lane
    numpy_dtype = inst.dtype.numpy_dtype
    dst = slots[inst.dst.name]
    field_name = inst.field_name
    if field_name == "laneid":

        def op(bstate):
            bstate.regs[dst] = np.full(
                bstate.size, lane, dtype=numpy_dtype
            )

    elif field_name == "warpid":

        def op(bstate):
            bstate.regs[dst] = bstate.warp_ids.astype(numpy_dtype)

    elif field_name == "resume_point":

        def op(bstate):
            bstate.regs[dst] = np.array(
                [
                    contexts[lane].resume_point
                    for contexts in bstate.contexts
                ],
                dtype=numpy_dtype,
            )

    elif field_name in _CONTEXT_COORDINATES:
        attribute, axis = _CONTEXT_COORDINATES[field_name]

        def op(bstate):
            bstate.regs[dst] = bstate.coordinates(
                attribute, axis, lane
            ).astype(numpy_dtype)

    else:
        # %clock observes mid-block cycle counters; such blocks run
        # in the sequential precise path only.
        raise _Unsupported()
    return op


def _acompile_context_write(inst: ContextWrite, slots):
    if inst.field_name != "resume_point":
        raise _Unsupported()
    lane = inst.lane
    read = _abatch_raw(inst.value, slots)

    def op(bstate):
        values = read(bstate)
        if getattr(values, "ndim", 0) == 0:
            value = int(values)
            for contexts in bstate.contexts:
                contexts[lane].resume_point = value
        else:
            for position, contexts in enumerate(bstate.contexts):
                contexts[lane].resume_point = int(values[position])

    return op


def _acompile_insert(inst: InsertElement, slots):
    dst = slots[inst.dst.name]
    numpy_dtype = inst.dst.dtype.numpy_dtype
    width = inst.dst.width
    index = inst.index
    read_scalar = _abatch_raw(inst.scalar, slots)
    if inst.src is None:

        def op(bstate):
            vector = np.zeros((bstate.size, width), dtype=numpy_dtype)
            vector[:, index] = read_scalar(bstate)
            bstate.regs[dst] = vector

    else:
        read_src = _abatch_raw(inst.src, slots)

        def op(bstate):
            source = read_src(bstate)
            if getattr(source, "ndim", 0) == 2:
                vector = source.astype(numpy_dtype)
                if vector is source:
                    vector = source.copy()
            else:
                vector = np.empty(
                    (bstate.size, width), dtype=numpy_dtype
                )
                vector[...] = (
                    source.reshape(-1, 1)
                    if getattr(source, "ndim", 0) == 1
                    else source
                )
            vector[:, index] = read_scalar(bstate)
            bstate.regs[dst] = vector

    return op


def _acompile_extract(inst: ExtractElement, slots):
    read = _abatch_raw(inst.src, slots)
    index = inst.index
    dst = slots[inst.dst.name]

    def op(bstate):
        vector = read(bstate)
        if getattr(vector, "ndim", 0) == 2:
            bstate.regs[dst] = vector[:, index].copy()
        else:
            bstate.regs[dst] = vector

    return op


def _acompile_broadcast(inst: Broadcast, slots):
    read = _abatch_raw(inst.src, slots)
    width = inst.dst.width
    numpy_dtype = inst.dst.dtype.numpy_dtype
    dst = slots[inst.dst.name]

    def op(bstate):
        source = read(bstate)
        out = np.empty((bstate.size, width), dtype=numpy_dtype)
        out[...] = (
            source.reshape(-1, 1)
            if getattr(source, "ndim", 0) == 1
            else source
        )
        bstate.regs[dst] = out

    return op


def _acompile_reduce(inst: Reduce, slots):
    impl = _REDUCE_IMPL.get(inst.op)
    if impl is None:
        raise _Unsupported()
    read = _abatch_raw(inst.src, slots)
    convert = inst.dst.dtype.numpy_dtype.type
    dst = slots[inst.dst.name]
    counts = inst.op == "add"

    def op(bstate):
        # Row-wise through the *scalar* reduction implementations:
        # their Python-int accumulation semantics (e.g. exact sums
        # truncated on conversion) are part of the reference
        # behavior and must match bit for bit.
        source = np.asarray(read(bstate))
        if counts and source.ndim == 2 and source.dtype == np.bool_:
            # _reduce_add of a predicate row, for all rows at once.
            values = np.count_nonzero(source, axis=1).astype(convert)
        elif source.ndim == 2:
            values = [
                convert(impl(source[position]))
                for position in range(bstate.size)
            ]
        elif source.ndim == 1:
            values = [
                convert(impl(np.asarray(source[position])))
                for position in range(bstate.size)
            ]
        else:
            value = convert(impl(source))
            values = [value] * bstate.size
        bstate.regs[dst] = np.array(values)

    return op


_ACOMPILERS = {
    BinaryOp: _acompile_binary,
    UnaryOp: _acompile_unary,
    FusedMultiplyAdd: _acompile_fma,
    Compare: _acompile_compare,
    Select: _acompile_select,
    Convert: _acompile_convert,
    Intrinsic: _acompile_intrinsic,
    Load: _acompile_load,
    Store: _acompile_store,
    VectorLoad: _acompile_vector_load,
    VectorStore: _acompile_vector_store,
    ContextRead: _acompile_context_read,
    ContextWrite: _acompile_context_write,
    InsertElement: _acompile_insert,
    ExtractElement: _acompile_extract,
    Broadcast: _acompile_broadcast,
    Reduce: _acompile_reduce,
    # AtomicRMW deliberately absent: see ArrayBackend.array_lowering.
}


# ---------------------------------------------------------------------------
# Terminators: uniform control flow or region exit
# ---------------------------------------------------------------------------


def _acompile_terminator(terminator, slots):
    """Batched terminator: returns the successor label (str) when all
    warps agree, a resume status (int) when all warps yield, or
    ``None`` when the batch diverges (per-warp fallback)."""
    if isinstance(terminator, Branch):
        target = terminator.target
        return lambda bstate: target
    if isinstance(terminator, CondBranch):
        predicate = terminator.predicate
        if (
            isinstance(predicate, VirtualRegister)
            and predicate.width > 1
        ):
            raise _Unsupported()
        read = _abatch_raw(predicate, slots)
        taken = terminator.taken
        fallthrough = terminator.fallthrough

        def aterm(bstate):
            values = read(bstate)
            if getattr(values, "ndim", 0) == 0:
                return taken if bool(values) else fallthrough
            nonzero = values != 0
            if nonzero.all():
                return taken
            if not nonzero.any():
                return fallthrough
            return None

        return aterm
    if isinstance(terminator, Switch):
        read = _abatch_raw(terminator.value, slots)
        cases = dict(terminator.cases)
        default = terminator.default

        def aterm(bstate):
            values = read(bstate)
            if getattr(values, "ndim", 0) == 0:
                return cases.get(int(values), default)
            first = cases.get(int(values[0]), default)
            for value in values[1:]:
                if cases.get(int(value), default) != first:
                    return None
            return first

        return aterm
    if isinstance(terminator, Yield):
        status = terminator.status
        return lambda bstate: status
    if isinstance(terminator, Exit):
        status = ResumeStatus.THREAD_EXIT
        return lambda bstate: status
    # BarrierTerm (or anything new) has no batched form.
    raise _Unsupported()


# ---------------------------------------------------------------------------
# Block translation (on first batched entry) and batch admission
# ---------------------------------------------------------------------------

#: Size rule: a batch is formed only when this many full warps wait at
#: one ready-pool key. Measured per batch on the 43 apps at PR 21's
#: parent (``execute_batch`` timed, warm, batches of two warps up;
#: benchmarks/results/one_executor/README.md): a completed batch costs
#: 4.3-5.5 us per batched op whatever its size, i.e. 2.2 us per
#: warp-instruction at 2-3 warps, 1.2 at 4-7, 0.55 at 8-15 and 0.27 at
#: 16, against 0.31-0.47 us on the sequential path (the 24 yield apps;
#: up to 1.15 on FMA chains): 16 is the smallest size that wins.
MIN_BATCH_WARPS = 16

#: Outcome rule: per entry point a score, +``_ABORT_WEIGHT`` for a
#: batch that left through continuations, -1 for one that reached its
#: yield (an aborted 16-warp batch runs its prefix at 0.95 us per
#: warp-instruction, transplant included, and loses ~3 x what a
#: completed one saves), kept within
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


class _ArrayBlocks(dict):
    """The batched lowering of one executable, ``label -> (ops,
    terminator)``, filled as batches first reach each label (the shape
    of the interpreter's ``_BlockTable``); ``None`` is the cached
    answer for a block that reads ``%clock`` or that the translation
    table cannot express, where the runner leaves the region.

    ``outcomes`` keeps what the batches did, per entry point, as
    ``[score, refusals left]``. Admission reads nothing else —
    outcomes, never the host clock — so which warps batch is a
    function of the launch history; and the record, living here, is
    shared by every execution manager and dropped with the
    translation it describes.
    """

    def __init__(self, function: IRFunction, slots):
        super().__init__()
        self.function = function
        self.slots = slots
        self.outcomes: Dict[int, List[int]] = {}

    def __missing__(self, label: str) -> Optional[tuple]:
        block = self.function.blocks[label]
        entry = None
        if not _reads_clock(block) and all(
            type(instruction) in _ACOMPILERS
            for instruction in block.instructions
        ):
            try:
                entry = (
                    tuple(
                        _ACOMPILERS[type(instruction)](instruction, self.slots)
                        for instruction in block.instructions
                    ),
                    _acompile_terminator(block.terminator, self.slots),
                )
            except _Unsupported:
                pass
        self[label] = entry
        return entry

    def admits(self, entry_point: int) -> bool:
        """Whether to form a batch at ``entry_point`` now; a refusal
        uses up one of the opportunities the record still refuses."""
        record = self.outcomes.get(entry_point)
        if record is None or not record[1]:
            return True
        record[1] -= 1
        return False

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

    ``kind == "yield"``: every warp took the same exit; ``status`` and
    ``stats`` apply identically to each warp in the batch.

    ``kind == "fallback"``: the region ended before a yield (divergent
    terminator, untranslated block, or a conservative instruction-
    limit/deadline exit); ``continuations`` carries one per-warp
    :class:`Continuation` for the sequential path to finish.
    """

    kind: str
    status: int = 0
    stats: ExecutionStats = field(default_factory=ExecutionStats)
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


def _continuations(
    bstate, label, at_terminator, executed,
    kernel_cycles, yield_cycles, flops,
):
    return tuple(
        Continuation(
            label=label,
            at_terminator=at_terminator,
            executed=executed,
            kernel_cycles=kernel_cycles,
            yield_cycles=yield_cycles,
            flops=flops,
            registers=_warp_registers(bstate, position),
        )
        for position in range(bstate.size)
    )


class ArrayBackend(Interpreter):
    """The executor of every ``Device``.

    Inherits the complete sequential machinery — the block emitter,
    ``execute``'s per-warp run loop — and adds the
    array lowering plus :meth:`execute_batch`. The sequential path is
    where every warp runs that admission does not put in a batch, the
    fallback target for continuations, and all there is for launches
    the execution manager cannot batch (degraded widths, traced or
    sanitized runs, static formation).
    """

    #: Feature-tested by the execution manager.
    supports_batching = True

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
        return _ArrayBlocks(executable.function, executable.register_slots)

    def execute_batch(
        self,
        executable: ExecutableFunction,
        warps,
        param_base: int,
        limit: int,
        deadline: Optional[float] = None,
    ) -> BatchOutcome:
        """Run a batch of same-entry-point warps through the array
        region, starting at the scheduler block. Modeled costs are
        charged per block from the same aggregates the sequential path
        uses; instruction-limit and deadline exits are *conservative*
        (the region is left before the offending block, and each
        warp's sequential resume re-detects the condition with
        byte-identical accounting). What the batch did is recorded for
        admission, except a conservative exit and a fault, which say
        nothing about the entry point."""
        bstate = _BatchState(executable, warps, param_base, self.memory)
        # Read first: the kernel's context writes update it in place.
        entry_point = warps[0].entry_point
        with guest_errstate():
            outcome = self._run_batch(executable, bstate, limit, deadline)
        if outcome.conclusive:
            reached_yield = outcome.kind == "yield"
            executable.array_blocks.record(entry_point, reached_yield)
        return outcome

    def _run_batch(self, executable, bstate, limit, deadline):
        array_blocks = executable.array_blocks
        label = executable.entry_label
        executed = 0
        kernel_cycles = yield_cycles = flops = 0
        next_deadline_check = _DEADLINE_CHECK_STRIDE
        while True:
            entry = array_blocks[label]
            at_terminator = False
            # An untranslated block: leave the region at its entry.
            conclusive = entry is None
            if conclusive:
                break
            block_cost = executable.block_cost(label)
            count = block_cost.instructions
            if executed + count > limit:
                break
            if (
                deadline is not None
                and executed + count >= next_deadline_check
            ):
                if time.monotonic() > deadline:
                    break
                next_deadline_check = (
                    executed + count + _DEADLINE_CHECK_STRIDE
                )
            ops, terminator = entry
            position = -1
            try:
                for position, op in enumerate(ops):
                    op(bstate)
                position = -2
                result = terminator(bstate)
            except ExecutionError as fault:
                # Array ops are 1:1 with block instructions, so the
                # loop position is the PC (the terminator's: one past
                # the body). The execution manager abandons a faulting
                # batch and re-runs its warps sequentially (exact trap
                # attribution); the annotation serves direct callers.
                _annotate_fault(
                    fault, label, len(ops) if position == -2 else position
                )
                raise
            kernel_cycles += block_cost.kernel_cycles
            yield_cycles += block_cost.yield_cycles
            flops += block_cost.flops
            executed += count
            if result is None:
                # Divergent terminator: the block body ran batched;
                # each warp evaluates its own terminator sequentially.
                at_terminator = conclusive = True
                break
            if isinstance(result, str):
                label = result
                continue
            stats = ExecutionStats()
            stats.kernel_cycles = kernel_cycles
            stats.yield_cycles = yield_cycles
            stats.flops = flops
            stats.instructions = executed
            return BatchOutcome("yield", status=int(result), stats=stats)
        return BatchOutcome(
            "fallback",
            continuations=_continuations(
                bstate, label, at_terminator, executed,
                kernel_cycles, yield_cycles, flops,
            ),
            conclusive=conclusive,
        )
