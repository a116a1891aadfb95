"""The batch printer: one function per block over all warps of a batch.

``machine/array_backend.py::_BatchPrinter`` prints a block from the
interpreter's one opcode table a second time, over ``(B,)`` /
``(B, ws)`` arrays, deciding everything about layout while it prints:
the rank of every operand, the dtype it is read as, which idiom an
instruction gets. These tests read what it printed
(``ExecutableFunction.batch_source``) and run hand-built IR — the rank
and dtype mixes the vectorizer only sometimes produces — through a
batch, one warp at a time and on the reference oracle: guest memory,
the memory system's access counts and the resume statuses must agree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Device, vectorized_config
from repro.errors import KernelTrap, MemoryFault
from repro.ir import BinaryOp, Compare, Load, UnaryOp, Yield
from repro.ir.instructions import (
    BarrierTerm,
    Branch,
    Broadcast,
    CondBranch,
    ContextRead,
    ContextWrite,
    Convert,
    ExtractElement,
    FusedMultiplyAdd,
    InsertElement,
    Reduce,
    Select,
    Store,
    Switch,
    VectorLoad,
    VectorStore,
)
from repro.ir.values import Constant, VirtualRegister
from repro.machine import sandybridge
from repro.machine.array_backend import (
    MIN_BATCH_WARPS,
    ArrayBackend,
    _BatchState,
)
from repro.machine.memory import MemorySystem
from repro.ptx.types import AddressSpace, DataType
from repro.runtime import ThreadContext
from repro.runtime.context import Warp
from repro.testing.reference import ReferenceInterpreter
from tests.conftest import VECADD_PTX, sequential_only
from tests.test_interpreter_lowering import _function

WS = 4
#: bytes of output per thread (sixteen 4-byte slots)
RECORD = 64
f32, u32, s32, u64, s64, pred = (
    DataType.f32, DataType.u32, DataType.s32, DataType.u64, DataType.s64,
    DataType.pred,
)
GLOBAL, PARAM = AddressSpace.global_, AddressSpace.param


def reg(name, dtype=u32, width=1):
    return VirtualRegister(name=name, dtype=dtype, width=width)


def vec(name, dtype=u32):
    return reg(name, dtype, WS)


def const(value, dtype=u32):
    return Constant(value, dtype)


def pack(name, dtype, scalars):
    """``insertelement`` chain packing ``scalars`` into vector ``name``."""
    chain, source = [], None
    for index, scalar in enumerate(scalars):
        last = index == len(scalars) - 1
        link = vec(name if last else f"{name}.{index}", dtype)
        chain.append(InsertElement(link, source, scalar, index))
        source = link
    return chain


def prelude(out):
    """``tid`` (per lane, u32), ``t0..`` (its lanes, per warp) and
    ``a0..``: per lane the address of the thread's output record."""
    code = [
        ContextRead("tid.x", u32, reg(f"t{lane}"), lane) for lane in range(WS)
    ]
    code += pack("tid", u32, [reg(f"t{lane}") for lane in range(WS)])
    code += [
        Convert(u64, u32, vec("tid64", u64), vec("tid")),
        BinaryOp("mul", u64, vec("off", u64), vec("tid64", u64),
                 const(RECORD, u64)),
        BinaryOp("add", u64, vec("addr", u64), vec("off", u64),
                 const(out, u64)),
    ]
    code += [
        ExtractElement(reg(f"a{lane}", u64), vec("addr", u64), lane)
        for lane in range(WS)
    ]
    return code


def keep(value, dtype, slot):
    """Store ``value`` in slot ``slot`` of every thread's record: a
    vector lane by lane, a scalar (or constant) as it is."""
    code = []
    for lane in range(WS):
        stored = value
        if getattr(value, "width", 1) > 1:
            stored = reg(f"k{slot}.{lane}", value.dtype)
            code.append(ExtractElement(stored, value, lane))
        code.append(Store(
            dtype, GLOBAL, reg(f"a{lane}", u64), stored, offset=4 * slot
        ))
    return code


def function_of(blocks):
    return _function(blocks, warp_size=WS)


def warps(count):
    return [
        Warp(
            contexts=[
                ThreadContext(
                    tid=(warp * WS + lane, 0, 0), ntid=(count * WS, 1, 1),
                    ctaid=(0, 0, 0), nctaid=(1, 1, 1),
                )
                for lane in range(WS)
            ],
            warp_id=warp,
        )
        for warp in range(count)
    ]


def run_legs(blocks_of, count=MIN_BATCH_WARPS, parameters=()):
    """``blocks_of(out)`` as one batch of ``count`` warps, one warp at
    a time and on the reference. Per leg: the arena, the memory
    system's (loads, stores), the statuses and the threads' resume
    points; the batch's outcome kind besides."""
    observed, kind = [], None
    for leg in ("batch", "sequential", "reference"):
        memory = MemorySystem(1 << 16)
        backend = (ReferenceInterpreter if leg == "reference" else ArrayBackend)(
            sandybridge(), memory
        )
        param_base = memory.allocate(64)
        memory.write_array(param_base, np.array(parameters, dtype=np.uint32))
        out = memory.allocate(count * WS * RECORD)
        executable = backend.load_function(function_of(blocks_of(out)))
        batch = warps(count)
        memory.load_count = memory.store_count = 0
        if leg == "batch":
            outcome = backend.execute_batch(
                executable, batch, param_base, backend.instruction_limit
            )
            kind = outcome.kind
            statuses = [outcome.status] * count
            if kind == "fallback":
                statuses = [
                    backend.execute(
                        executable, warp, param_base,
                        continuation=continuation,
                    )
                    for warp, continuation in zip(batch, outcome.continuations)
                ]
        else:
            statuses = [
                backend.execute(executable, warp, param_base) for warp in batch
            ]
        observed.append((
            memory.data[: memory.bytes_allocated].copy(),
            (memory.load_count, memory.store_count),
            statuses,
            [context.resume_point for warp in batch for context in warp.contexts],
        ))
    return observed, kind


def assert_legs_agree(blocks_of, kind="yield", **options):
    (batch, sequential, reference), batch_kind = run_legs(blocks_of, **options)
    assert batch_kind == kind
    for other in (sequential, reference):
        assert np.array_equal(batch[0], other[0])
        assert batch[1:] == other[1:]
    return batch


def batch_source(instructions):
    """What the batch printer prints for one block of ``instructions``."""
    backend = ArrayBackend(sandybridge(), MemorySystem(1 << 16))
    executable = backend.load_function(function_of({"entry": instructions}))
    return executable.batch_source("entry")


# ---------------------------------------------------------------------------
# The printer, as source
# ---------------------------------------------------------------------------


class TestPrintedSource:
    def test_constant_address_param_load_is_one_guest_load(self):
        source = batch_source([
            Load(u32, reg("n"), PARAM, const(8, u64)),
            BinaryOp("add", u32, reg("m"), reg("n"), const(1)),
            Yield(status=3),
        ])
        # the warp printer's scalar template, counted once per warp
        assert "V_u4[a >> 2] if not a & 3" in source
        assert "memory.load_count += B" in source
        assert "_check_batch" not in source and "union(" not in source
        # and its value stays 0-d: nothing gives it the batch axis
        assert "np.full" not in source and "np.empty" not in source
        batch, *_ = run_legs(lambda out: {"entry": [
            Load(u32, reg("n"), PARAM, const(8, u64)), Yield(status=3),
        ]}, parameters=[0, 0, 7])[0]
        assert batch[1] == (MIN_BATCH_WARPS, 0)

    def test_constant_shift_prints_no_call(self):
        source = batch_source([
            *prelude(1024),
            BinaryOp("shl", u32, vec("a"), vec("tid"), const(3)),
            BinaryOp("ashr", s32, vec("b"), vec("a"), const(40)),
            BinaryOp("lshr", u32, vec("c"), vec("a"), reg("t0")),
            Yield(status=3),
        ])
        lines = source.splitlines()
        first = next(i for i, line in enumerate(lines) if "= shl.u32" in line)
        body = "\n".join(lines[first:])
        assert " << k" in body and " >> k" in body
        # only the register amount still goes through the clamped shift
        assert body.count(", D_") == 1 and ", D_u32)" in body

    def test_insert_chain_prints_one_allocation(self):
        source = batch_source([*prelude(1024), Yield(status=3)])
        chain = source[: source.index("convert.u64.u32")]
        assert chain.count("np.zeros((B, 4)") == 1
        assert ".copy()" not in chain and ".astype" not in chain.replace(
            ".astype(W_u4)  #", ""
        )
        for lane in range(WS):
            assert f"[:, {lane}] = r" in chain

    def test_exact_dtype_operand_prints_no_coerce(self):
        source = batch_source([
            *prelude(1024),
            BinaryOp("add", u32, vec("a"), vec("tid"), reg("t1")),
            BinaryOp("max", s32, vec("b"), vec("a"), const(-1, s32)),
            Yield(status=3),
        ])
        assert "coerce" not in source
        # the per-warp operand meets the per-lane one with its axis
        assert "[:, None]" in source
        # max.s32 on the u32 value: reinterpreted statically
        assert ".view(W_i4)" in source

    def test_live_in_of_unknown_dtype_prints_one_guard(self):
        source = batch_source([
            BinaryOp("add", f32, vec("b", f32), vec("x", f32), vec("x", f32)),
            Yield(status=3),
        ])
        assert source.count("coerce(") == 1
        assert "is None: r1 = regs[1] = np.zeros((B, 4), dtype=W_f4)" in source

    def test_declined_block_returns_none_and_batch_leaves_at_entry(self):
        # a barrier has no batched form; the block before it does
        blocks = {
            "entry": [
                BinaryOp("add", u32, reg("x"), const(1), const(2)),
                Branch("sync"),
            ],
            "sync": [BarrierTerm("after")],
            "after": [Yield(status=3)],
        }
        backend = ArrayBackend(sandybridge(), MemorySystem(1 << 16))
        executable = backend.load_function(function_of(blocks))
        assert executable.batch_source("entry") is not None
        assert executable.batch_source("sync") is None
        outcome = backend.execute_batch(
            executable, warps(MIN_BATCH_WARPS), 0, backend.instruction_limit
        )
        assert outcome.kind == "fallback" and outcome.conclusive
        for continuation in outcome.continuations:
            assert continuation.label == "sync"
            assert continuation.stats.instructions == 2  # entry add, branch
        assert executable.array_blocks["sync"] is None

    def test_what_the_printer_declines(self):
        backend = ArrayBackend(sandybridge(), MemorySystem(1 << 16))
        declined = {
            "clock": [ContextRead("clock", u32, reg("c")), Yield(status=3)],
            "vector predicate": [CondBranch(vec("p", pred), "a", "b")],
            "vector operand of a scalar store": [
                Store(u32, GLOBAL, const(1024, u64), vec("v")), Yield(status=3)
            ],
            "per-lane address": [
                Load(u32, reg("x"), GLOBAL, vec("a", u64)), Yield(status=3)
            ],
            # emitted under static formation only, which never batches
            "vector load": [
                VectorLoad(u32, vec("v"), GLOBAL, reg("a", u64)),
                Yield(status=3),
            ],
            "vector store": [
                VectorStore(u32, GLOBAL, reg("a", u64), vec("v")),
                Yield(status=3),
            ],
        }
        for reason, instructions in declined.items():
            blocks = {"entry": instructions, "a": [Yield(3)], "b": [Yield(3)]}
            executable = backend.load_function(function_of(blocks))
            assert executable.batch_source("entry") is None, reason
            # the sequential path still has its form (or its error)
            assert executable.block_source("entry")

    def test_unbatched_executables_have_no_batch_source(self):
        from repro.machine import Interpreter

        interpreter = Interpreter(sandybridge(), MemorySystem(1 << 16))
        executable = interpreter.load_function(
            function_of({"entry": [Yield(status=3)]})
        )
        assert executable.batch_source("entry") is None

    def test_lines_end_in_their_instruction_and_are_in_linecache(self):
        import linecache

        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        device.warm()
        executable = device.cache.resident("vecAdd", 4)
        source = executable.batch_source("fall_1")
        block = executable.function.blocks["fall_1"]
        assert f"# 0: {block.instructions[0]}" in source
        assert f"# {len(block.instructions)}: {block.terminator}" in source
        filename = "<repro:vecAdd.w4/ws4/fall_1:batch>"
        assert "".join(linecache.getlines(filename)) == source


# ---------------------------------------------------------------------------
# What the closures decided per execution, decided in print
# ---------------------------------------------------------------------------


class TestBatchedSemantics:
    def test_mixed_rank_fma_and_select(self):
        def blocks(out):
            half, three = const(0.5, f32), const(3.0, f32)
            return {"entry": [
                *prelude(out),
                Convert(f32, u32, vec("f", f32), vec("tid")),       # per lane
                ExtractElement(reg("w", f32), vec("f", f32), 1),    # per warp
                Load(f32, reg("u", f32), PARAM, const(4, u64)),     # uniform
                FusedMultiplyAdd(f32, vec("r1", f32), reg("u", f32),
                                 reg("w", f32), vec("f", f32)),
                FusedMultiplyAdd(f32, vec("r2", f32), vec("f", f32),
                                 reg("u", f32), reg("w", f32)),
                FusedMultiplyAdd(f32, reg("r3", f32), reg("w", f32),
                                 reg("u", f32), half),
                FusedMultiplyAdd(f32, reg("r4", f32), reg("u", f32),
                                 three, half),
                Compare("gt", f32, reg("pw", pred), reg("w", f32),
                        const(9.0, f32)),
                Compare("gt", f32, vec("pl", pred), vec("f", f32),
                        const(9.0, f32)),
                Select(f32, vec("s1", f32), vec("f", f32), reg("u", f32),
                       reg("pw", pred)),
                Select(f32, vec("s2", f32), reg("w", f32), half,
                       vec("pl", pred)),
                Select(f32, reg("s3", f32), reg("u", f32), three,
                       reg("pw", pred)),
                *keep(vec("r1", f32), f32, 0), *keep(vec("r2", f32), f32, 1),
                *keep(reg("r3", f32), f32, 2), *keep(reg("r4", f32), f32, 3),
                *keep(vec("s1", f32), f32, 4), *keep(vec("s2", f32), f32, 5),
                *keep(reg("s3", f32), f32, 6),
                Yield(status=3),
            ]}

        parameters = np.array([0, 2.5], dtype=np.float32).view(np.uint32)
        assert_legs_agree(blocks, parameters=parameters)

    def test_register_read_before_any_write(self):
        # typed zeros, a scalar and a vector, in the block that reads
        # them first and in its successor
        def blocks(out):
            return {
                "entry": [
                    *prelude(out),
                    BinaryOp("add", f32, reg("a", f32), reg("never", f32),
                             const(1.5, f32)),
                    BinaryOp("add", u32, vec("b"), vec("nevervec"),
                             vec("tid")),
                    *keep(reg("a", f32), f32, 0), *keep(vec("b"), u32, 1),
                    Branch("next"),
                ],
                "next": [
                    BinaryOp("sub", s32, vec("c", s32), vec("late", s32),
                             vec("b")),
                    BinaryOp("or", u32, reg("d"), reg("never2"), reg("t2")),
                    *keep(vec("c", s32), s32, 2), *keep(reg("d"), u32, 3),
                    Yield(status=3),
                ],
            }

        assert_legs_agree(blocks)

    def test_mulhi_64_bit_straddling_the_sign_bit(self):
        # PR 12's bug: lanes on either side of 2**63 in one operand
        def blocks(out):
            return {"entry": [
                *prelude(out),
                BinaryOp("add", u64, vec("x", u64), vec("tid64", u64),
                         const((1 << 63) - 2, u64)),
                ExtractElement(reg("xw", u64), vec("x", u64), 3),
                BinaryOp("mulhi", u64, vec("h1", u64), vec("x", u64),
                         const(6, u64)),
                BinaryOp("mulhi", s64, vec("h2", s64), vec("x", u64),
                         reg("xw", u64)),
                BinaryOp("mulhi", u64, reg("h3", u64), reg("xw", u64),
                         reg("xw", u64)),
                BinaryOp("mulhi", u64, reg("h4", u64), const(1 << 63, u64),
                         const(6, u64)),
                *keep(vec("h1", u64), u64, 0), *keep(vec("h2", s64), s64, 2),
                *keep(reg("h3", u64), u64, 4), *keep(reg("h4", u64), u64, 6),
                Yield(status=3),
            ]}

        assert_legs_agree(blocks)

    def test_predicate_typed_logic_and_reductions(self):
        def blocks(out):
            one, zero = const(1), const(0)
            code = [
                *prelude(out),
                Compare("lt", u32, vec("pl", pred), vec("tid"), const(6)),
                Compare("gt", u32, vec("ql", pred), vec("tid"), const(2)),
                Compare("lt", u32, reg("pw", pred), reg("t0"), const(12)),
                Compare("lt", u32, reg("pu", pred), const(1), const(2)),
                BinaryOp("and", pred, vec("x1", pred), vec("pl", pred),
                         reg("pw", pred)),
                BinaryOp("or", pred, reg("x2", pred), reg("pw", pred),
                         reg("pu", pred)),
                BinaryOp("xor", pred, vec("x3", pred), vec("pl", pred),
                         vec("ql", pred)),
                UnaryOp("not", pred, vec("x4", pred), vec("x3", pred)),
                UnaryOp("not", pred, reg("x5", pred), reg("pu", pred)),
            ]
            for slot, name in enumerate(("x1", "x3", "x4")):
                code += [
                    Select(u32, vec(f"s{slot}"), one, zero, vec(name, pred)),
                    *keep(vec(f"s{slot}"), u32, slot),
                ]
            for slot, name in ((3, "x2"), (4, "x5")):
                code += [
                    Select(u32, reg(f"s{slot}"), one, zero, reg(name, pred)),
                    *keep(reg(f"s{slot}"), u32, slot),
                ]
            for slot, op in enumerate(("add", "any", "all", "uni", "ballot"), 5):
                code += [
                    Reduce(op, reg(f"v{slot}", s32), vec("x3", pred)),
                    *keep(reg(f"v{slot}", s32), s32, slot),
                ]
            # not a predicate row: the sum goes through Python ints
            code += [
                Reduce("add", reg("sum", s32), vec("tid")),
                *keep(reg("sum", s32), s32, 10),
                Yield(status=3),
            ]
            return {"entry": code}

        assert_legs_agree(blocks)

    def test_division_and_remainder_by_zero(self):
        def blocks(out):
            code = [
                *prelude(out),
                BinaryOp("rem", u32, vec("d"), vec("tid"), const(3)),
                BinaryOp("rem", u32, reg("dw"), reg("t0"), const(8)),
                BinaryOp("sub", s32, vec("n", s32), const(5, s32), vec("tid")),
            ]
            cases = (
                ("div", u32, const(100), vec("d")),
                ("rem", u32, const(100), vec("d")),
                ("div", s32, vec("n", s32), vec("d")),
                ("rem", s32, vec("n", s32), vec("d")),
                ("div", u32, vec("tid"), reg("dw")),
                ("rem", s32, vec("n", s32), reg("dw")),
                ("div", u32, vec("tid"), const(0)),
                ("div", f32, const(1.0, f32), const(0.0, f32)),
            )
            for slot, (op, dtype, a, b) in enumerate(cases):
                width = max(getattr(a, "width", 1), getattr(b, "width", 1))
                result = reg(f"q{slot}", dtype, width)
                code += [
                    BinaryOp(op, dtype, result, a, b),
                    *keep(result, dtype, slot),
                ]
            return {"entry": [*code, Yield(status=3)]}

        assert_legs_agree(blocks)

    def test_float_to_int_conversion_saturates(self):
        def blocks(out):
            code = [
                *prelude(out),
                Convert(f32, u32, vec("f", f32), vec("tid")),
                FusedMultiplyAdd(f32, vec("g", f32), vec("f", f32),
                                 const(5.0e8, f32), const(-4.0e9, f32)),
                Compare("eq", u32, vec("odd", pred), vec("tid"), const(5)),
                Select(f32, vec("h", f32), const(float("nan"), f32),
                       vec("g", f32), vec("odd", pred)),
                ExtractElement(reg("hw", f32), vec("h", f32), 1),
            ]
            cases = (
                (s32, "rzi", vec("h", f32)), (u32, "rni", vec("h", f32)),
                (u64, "rmi", vec("h", f32)), (s32, "rpi", reg("hw", f32)),
                (s32, None, const(float("nan"), f32)),
                (u32, None, const(-1.0, f32)), (s32, None, const(3.0e9, f32)),
            )
            slot = 0
            for dtype, rounding, source in cases:
                result = reg(f"c{slot}", dtype, getattr(source, "width", 1))
                code += [
                    Convert(dtype, f32, result, source, rounding),
                    *keep(result, dtype, slot),
                ]
                slot += dtype.size // 4
            return {"entry": [*code, Yield(status=3)]}

        assert_legs_agree(blocks)

    @pytest.mark.parametrize("skew", [0, 2])
    def test_scalar_memory_aligned_and_not(self, skew):
        # gathered and scattered through the inline template: `skew`
        # bytes off alignment takes the element-by-element path
        def blocks(out):
            return {"entry": [
                *prelude(out),
                Store(u32, GLOBAL, reg("a1", u64), reg("t1"),
                      offset=32 + skew),
                Store(f32, GLOBAL, reg("a2", u64), const(1.5, f32),
                      offset=40 + skew),
                Load(u32, reg("one"), GLOBAL, reg("a1", u64),
                     offset=32 + skew),
                # every warp stores to one address, in order: the last
                # one's value stays
                Store(u32, GLOBAL, const(out + 60, u64), reg("t2")),
                BinaryOp("add", u32, vec("sum"), vec("tid"), reg("one")),
                *keep(vec("sum"), u32, 12),
                Yield(status=3),
            ]}

        assert_legs_agree(blocks)

    def test_broadcast_and_vector_registers_holding_one_value(self):
        # a converted constant in a vector register has no lanes: it
        # reduces and extracts as the one value it is, and a successor
        # block that finds it live in leaves the batch before running
        def blocks(out):
            return {
                "entry": [
                    *prelude(out),
                    Convert(u64, u32, vec("four", u64), const(4)),
                    BinaryOp("add", u32, vec("wide"), reg("t1"), const(7)),
                    Broadcast(vec("splat"), reg("t3")),
                    ExtractElement(reg("e1", u64), vec("four", u64), 2),
                    ExtractElement(reg("e2"), vec("wide"), 3),
                    Reduce("add", reg("sum", s32), vec("wide")),
                    Reduce("add", reg("lanes", s32), vec("splat")),
                    BinaryOp("mul", u64, vec("scaled", u64),
                             vec("tid64", u64), vec("four", u64)),
                    *keep(reg("e1", u64), u64, 0), *keep(reg("e2"), u32, 2),
                    *keep(reg("sum", s32), s32, 3),
                    *keep(reg("lanes", s32), s32, 4),
                    *keep(vec("scaled", u64), u64, 6),
                    Branch("next"),
                ],
                "next": [
                    Reduce("add", reg("again", s32), vec("wide")),
                    *keep(reg("again", s32), s32, 8),
                    Yield(status=3),
                ],
            }

        batch = assert_legs_agree(blocks, kind="fallback")
        assert batch[2] == [3] * MIN_BATCH_WARPS

    def test_terminators_agree_or_leave(self):
        # a Switch whose values differ but whose labels agree stays
        # batched; a per-warp predicate the batch splits on leaves with
        # the body done, each warp taking its own arm
        def blocks(out):
            return {
                "entry": [
                    *prelude(out),
                    BinaryOp("and", u32, reg("low"), reg("t0"), const(4)),
                    Switch(reg("low"), {0: "both", 4: "both"}, "never"),
                ],
                "both": [
                    ContextWrite("resume_point", reg("t1"), lane=1),
                    ContextWrite("resume_point", const(9), lane=2),
                    Compare("lt", u32, reg("p", pred), reg("t0"), const(12)),
                    *keep(reg("low"), u32, 0),
                    CondBranch(reg("p", pred), "early", "late"),
                ],
                "early": [*keep(const(1), u32, 1), Yield(status=1)],
                "late": [*keep(const(2), u32, 1), Yield(status=3)],
                "never": [Yield(status=2)],
            }

        batch = assert_legs_agree(blocks, kind="fallback")
        assert sorted(set(batch[2])) == [1, 3]


class TestBatchedMemoryTemplate:
    """A printed batched ``Load``/``Store`` is the scalar access over a
    batch: same values, same counters, and a fault names the address
    the scalar path — walking the batch in index order — would have
    named."""

    SIZE = 1 << 12

    def _template(self, dtype, store):
        """``run(addresses, values) -> loaded``: the block's printed
        function over a batch whose address (and value) registers are
        preset, and the memory system it accesses."""
        memory = MemorySystem(self.SIZE)
        backend = ArrayBackend(sandybridge(), memory)
        address, value = reg("ad", u64), reg("x", dtype)
        access = (
            Store(dtype, GLOBAL, address, value) if store
            else Load(dtype, value, GLOBAL, address)
        )
        executable = backend.load_function(
            function_of({"entry": [access, Yield(status=3)]})
        )
        code = executable.array_blocks["entry"][0]
        slots = executable.register_slots

        def run(addresses, values=None):
            state = _BatchState(executable, warps(len(addresses)), 0)
            state.regs[slots["ad"]] = np.array(addresses, dtype=np.int64)
            state.regs[slots["x"]] = values
            assert code(state) == 3
            return state.regs[slots["x"]]

        return run, memory

    def _scalar_fault(self, dtype, addresses):
        memory = MemorySystem(self.SIZE)
        with pytest.raises(MemoryFault) as caught:
            for address in addresses:
                memory.load(dtype, address)
        return caught.value.address, caught.value.size

    @pytest.mark.parametrize(
        "addresses",
        [
            [256, 8, 512, 0],            # low: below the null guard
            [256, SIZE - 2, SIZE, 512],  # high: past the arena end
            [256, SIZE, 512, 8],         # mixed: the high one is first
            [256, -8, SIZE, 512],        # negative
        ],
        ids=["low", "high", "mixed", "negative"],
    )
    @pytest.mark.parametrize("dtype", [u32, pred])
    def test_out_of_bounds_names_the_scalar_paths_address(
        self, addresses, dtype
    ):
        expected = self._scalar_fault(dtype, addresses)
        for store in (False, True):
            run, memory = self._template(dtype, store)
            with pytest.raises(MemoryFault) as caught:
                run(addresses, np.ones(4, dtype=np.uint32))
            assert (caught.value.address, caught.value.size) == expected
            # the whole batch is checked before any of it is touched
            assert memory.load_count == memory.store_count == 0
            assert not memory.data.any()

    @pytest.mark.parametrize("offset", [0, 1, 2], ids=["aligned", "+1", "+2"])
    @pytest.mark.parametrize(
        "dtype", [DataType.u8, DataType.u16, f32, u64]
    )
    def test_roundtrip_matches_scalar_access(self, dtype, offset):
        # one misaligned address is enough to leave the typed view
        addresses = [512, 128 + offset, 1024, 128 + offset + 64]
        values = np.arange(4).astype(dtype.numpy_dtype) + 3
        scatter, memory = self._template(dtype, store=True)
        scatter(addresses, values)
        assert memory.store_count == 4
        assert [memory.load(dtype, a) for a in addresses] == list(values)
        gather, other = self._template(dtype, store=False)
        other.data[:] = memory.data
        loaded = gather(addresses)
        assert loaded.dtype == dtype.numpy_dtype
        assert np.array_equal(loaded, values) and other.load_count == 4

    def test_predicates_and_last_writer_wins(self):
        addresses = [100, 101, 100]
        scatter, memory = self._template(pred, store=True)
        scatter(addresses, np.array([1, 5, 0]))
        assert list(memory.data[100:102]) == [0, 1]
        gather, other = self._template(pred, store=False)
        other.data[:] = memory.data
        loaded = gather(addresses)
        assert loaded.dtype == np.bool_ and list(loaded) == [False, True, False]

    def test_a_patched_memory_system_is_never_batched(self):
        # What FaultInjector("memory_fault") does: override the scalar
        # entry points on the instance. Printed batch code would not
        # call them, so no batch is formed while a patch is in place.
        device = Device(config=vectorized_config(4))
        device.register_module(VECADD_PTX)
        device.warm()
        buffers = [device.malloc(64 * 4) for _ in range(3)]

        def launch():
            return device.launch(
                "vecAdd", grid=2, block=32, args=[*buffers, 64]
            ).statistics.batched_warps

        assert launch() == 16
        seen = []
        load = device.memory.load
        device.memory.load = lambda dtype, address: (
            seen.append(address) or load(dtype, address)
        )
        assert launch() == 0 and seen
        del device.memory.load
        assert launch() == 16


# ---------------------------------------------------------------------------
# Faults inside a printed batch
# ---------------------------------------------------------------------------

#: ``out[i] = in[i] + 1`` through pointers the host may skew or
#: shorten: a misaligned batch, or one whose last CTA runs off the
#: arena.
COPY_PTX = r"""
.version 2.3
.target sim
.entry copy (.param .u64 src, .param .u64 dst)
{
  .reg .u32 %r<6>;
  .reg .u64 %rd<8>;
  mov.u32 %r1, %tid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %ctaid.x;
  mad.lo.u32 %r4, %r3, %r2, %r1;
  mul.wide.u32 %rd1, %r4, 4;
  ld.param.u64 %rd2, [src];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.u32 %r5, [%rd3];
  add.u32 %r5, %r5, 1;
  ld.param.u64 %rd4, [dst];
  add.u64 %rd5, %rd4, %rd1;
  st.global.u32 [%rd5], %r5;
  exit;
}
"""


def _copy(src_skew=0, far=False):
    device = Device(config=vectorized_config(4))
    device.register_module(COPY_PTX)
    device.warm()
    values = np.arange(80, dtype=np.uint32)
    src = device.upload(values)
    dst = device.malloc(80 * 4)
    source = src.address + src_skew
    if far:  # the second CTA's reads run off the end of the arena
        source = device.memory.size - 32 * 4
    trap = None
    try:
        statistics = device.launch(
            "copy", grid=2, block=32, args=[source, dst]
        ).statistics
    except KernelTrap as caught:
        statistics, info = caught.statistics, caught.info
        trap = (
            info.cause_type, info.block_label, info.instruction_index,
            [lane.tid for lane in info.faulting_lanes],
            info.registers,
        )
    return (
        statistics.batched_warps, trap,
        device.memory.data[: device.memory.bytes_allocated].copy(),
    )


class TestBatchedFaults:
    def test_misaligned_batch_matches_sequential(self):
        batched, trap, arena = _copy(src_skew=2)
        assert batched == 16 and trap is None
        with sequential_only():
            assert _copy(src_skew=2)[0] == 0
            assert np.array_equal(_copy(src_skew=2)[2], arena)

    def test_out_of_bounds_batch_traps_like_sequential(self):
        batched, trap, arena = _copy(far=True)
        # the first CTA's batch completed; the second's was abandoned
        # at its fault and its warps re-run one at a time
        assert batched == 8
        assert trap is not None and trap[0] == "MemoryFault"
        with sequential_only():
            sequential_batched, sequential_trap, sequential_arena = _copy(
                far=True
            )
        assert sequential_batched == 0
        assert trap == sequential_trap
        assert np.array_equal(arena, sequential_arena)

    def test_direct_callers_get_the_program_counter(self):
        # execute_batch annotates the fault from the printed function's
        # line table, as the warp path does
        blocks = {"entry": [
            BinaryOp("add", u32, reg("x"), const(1), const(2)),
            Load(u32, reg("y"), GLOBAL, const(1 << 20, u64)),
            Yield(status=3),
        ]}
        backend = ArrayBackend(sandybridge(), MemorySystem(1 << 16))
        executable = backend.load_function(function_of(blocks))
        with pytest.raises(MemoryFault) as excinfo:
            backend.execute_batch(
                executable, warps(MIN_BATCH_WARPS), 0,
                backend.instruction_limit,
            )
        assert excinfo.value.trap_label == "entry"
        assert excinfo.value.trap_index == 1
        assert executable.array_blocks.outcomes == {}
