"""Closure-specialized lowering and runtime correctness regressions.

The closure lowering must be a pure host-side optimization: every
*modeled* statistic has to stay bit-identical to the dispatch
reference interpreter (``backend="reference"``). These tests pin that
A/B equivalence on divergent, barrier-heavy and %clock-reading
workloads, the shape of the lowering itself (one generated function
per entered block, nothing for blocks no warp reaches), and the
satellite fixes
that rode along (static warp formation, arena free validation,
spill-layout caching, ready-pool fairness, warp-size specialization
selection).
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import Device, ExecutionConfig, vectorized_config
from repro.errors import ExecutionError, MemoryFault
from repro.ir import BinaryOp, Compare, IRFunction, Load, UnaryOp, Yield
from repro.ir.instructions import (
    BarrierTerm,
    Branch,
    CondBranch,
    ContextRead,
    Convert,
    Exit,
    FusedMultiplyAdd,
    Reduce,
    Select,
    Store,
)
from repro.ir.values import Constant, VirtualRegister
from repro.machine import Interpreter, sandybridge
from repro.machine import interpreter as lowering
from repro.machine.memory import MemorySystem
from repro.ptx.types import AddressSpace, DataType
from repro.runtime import ThreadContext
from repro.runtime.context import Warp
from repro.runtime.config import static_tie_config
from repro.runtime.execution_manager import ExecutionManager, _ReadyPool
from repro.workloads.registry import all_workloads, get_workload
from tests.conftest import COLLATZ_PTX, VECADD_PTX, sequential_only


# ---------------------------------------------------------------------------
# A/B: closure lowering vs dispatch reference — bit-identical statistics
# ---------------------------------------------------------------------------


def _modeled_statistics(statistics) -> dict:
    """Every modeled quantity the paper reports. Host wall-clock is
    deliberately absent — it is the one thing allowed to differ."""
    return {
        "kernel_cycles": statistics.kernel_cycles,
        "yield_cycles": statistics.yield_cycles,
        "em_cycles": statistics.em_cycles,
        "instructions": statistics.instructions,
        "flops": statistics.flops,
        "warp_size_histogram": dict(statistics.warp_size_histogram),
        "yields_by_status": dict(statistics.yields_by_status),
        "thread_entries": statistics.thread_entries,
        "values_restored": statistics.values_restored,
        "warp_executions": statistics.warp_executions,
        "threads_launched": statistics.threads_launched,
    }


class TestInterpreterModeEquivalence:
    # BitonicSort: data-dependent branching (divergent); Reduction:
    # bar.sync tree (barrier-heavy); Clock: reads %clock, so every
    # block runs in precise accounting mode.
    @pytest.mark.parametrize(
        "name", ["BitonicSort", "Reduction", "Clock"]
    )
    def test_modes_bit_identical(self, name):
        workload = get_workload(name)
        observed = {}
        for backend in ("interpreter", "reference"):
            config = replace(vectorized_config(4), backend=backend)
            run = workload.run_on(config, scale=0.25)
            assert run.correct, f"{name} incorrect under {backend}"
            observed[backend] = _modeled_statistics(run.statistics)
        with sequential_only():
            run = workload.run_on(vectorized_config(4), scale=0.25)
        assert run.correct and run.statistics.batched_warps == 0
        assert observed["interpreter"] == observed["reference"]
        assert _modeled_statistics(run.statistics) == observed["reference"]

    @pytest.mark.parametrize(
        "name", [workload.name for workload in all_workloads()]
    )
    def test_vector_memory_modes_bit_identical(self, name):
        # The oracle runs a contiguous group's lanes and checks they
        # access lane 0's address plus k elements: the affine proof the
        # group's one-access price rests on, on every app.
        workload = get_workload(name)
        config = static_tie_config(4, vector_memory=True)
        observed = {}
        for backend in ("interpreter", "reference"):
            run = workload.run_on(replace(config, backend=backend), scale=0.25)
            assert run.correct, f"{name} incorrect under {backend}"
            observed[backend] = _modeled_statistics(run.statistics)
        assert observed["interpreter"] == observed["reference"]

    @pytest.mark.parametrize("stride", [4, 8, 0])
    def test_reference_checks_a_contiguous_group(self, stride):
        # A hand-built contiguous store group whose lanes are `stride`
        # bytes apart: the oracle runs it only if they are contiguous.
        from repro.testing.reference import ReferenceInterpreter

        u32, u64 = DataType.u32, DataType.u64
        memory = MemorySystem(1 << 12)
        out = memory.allocate(64) + 16
        tid, wide = _reg("tid", u32, 4), _reg("tid64", u64, 4)
        offset, address = _reg("off", u64, 4), _reg("a", u64, 4)
        function = _function({"entry": [
            ContextRead("tid.x", u32, tid, lane=None, pack=True),
            Convert(u64, u32, wide, tid),
            BinaryOp("mul", u64, offset, wide, Constant(stride, u64)),
            BinaryOp("add", u64, address, offset, Constant(out, u64)),
            Store(u32, AddressSpace.global_, address, tid, lane=None,
                  extracts=1, contiguous=True),
            Yield(status=3),
        ]}, warp_size=4)
        reference = ReferenceInterpreter(sandybridge(), memory)
        loaded = reference.load_function(function)
        warp = Warp(contexts=[_context(x) for x in range(4)])
        if stride != 4:
            with pytest.raises(ExecutionError, match="contiguous group"):
                reference.execute(loaded, warp, param_base=0)
            return
        reference.execute(loaded, warp, param_base=0)
        assert list(memory.read_array(out, np.uint32, 4)) == [0, 1, 2, 3]

    def test_dispatch_mode_end_to_end(self, rng):
        from repro.testing.reference import ReferenceInterpreter

        config = replace(vectorized_config(4), backend="reference")
        device = Device(config=config)
        assert isinstance(device.interpreter, ReferenceInterpreter)
        device.register_module(VECADD_PTX)
        n = 64
        a = rng.standard_normal(n).astype(np.float32)
        b = rng.standard_normal(n).astype(np.float32)
        c = device.malloc(n * 4)
        device.launch(
            "vecAdd", grid=(1, 1, 1), block=(64, 1, 1),
            args=[device.upload(a), device.upload(b), c, n],
        )
        np.testing.assert_array_equal(
            device.memcpy_dtoh(c, np.float32, n), a + b
        )


# ---------------------------------------------------------------------------
# The shape of the lowering: one generated function per entered block
# ---------------------------------------------------------------------------


def _reg(name, dtype=DataType.f32, width=1):
    return VirtualRegister(name=name, dtype=dtype, width=width)


def _fma(dst, a):
    return FusedMultiplyAdd(
        dtype=DataType.f32, dst=_reg(dst), a=_reg(a),
        b=Constant(0.5, DataType.f32), c=Constant(1.0, DataType.f32),
    )


def _add(dst, a):
    return BinaryOp(
        op="add", dtype=DataType.f32, dst=_reg(dst), a=_reg(a),
        b=Constant(2.0, DataType.f32),
    )


def _store(value, address, dtype, lane=0):
    """A store of lane ``lane``: of a vector ``value``, that lane."""
    return Store(
        dtype=dtype, space=AddressSpace.global_,
        base=Constant(address, DataType.u64), value=value, lane=lane,
    )


def _function(blocks, warp_size=1):
    """``blocks``: label -> instructions (the last one a terminator)."""
    function = IRFunction("t", warp_size=warp_size)
    for label, instructions in blocks.items():
        function.add_block(label).extend(instructions)
    return function


@pytest.fixture
def compiles(monkeypatch):
    """Filenames of every ``compile()`` call the lowering makes (the
    batch printer's end in ``:batch``)."""
    seen = []
    monkeypatch.setattr(
        lowering,
        "compile",
        lambda *args: seen.append(args[1]) or compile(*args),
        raising=False,
    )
    return seen


class TestBlockEmitter:
    def test_one_generated_function_per_entered_block(self, compiles):
        # entry branches on a constant predicate: "cold" is never
        # entered, so it has neither code nor a cost entry.
        interpreter = Interpreter(sandybridge(), MemorySystem(1 << 16))
        function = _function({
            "entry": [
                _fma("a", "x"),
                CondBranch(Constant(True, DataType.pred), "hot", "cold"),
            ],
            "hot": [_add("b", "a"), Yield(status=3)],
            "cold": [_add("b", "x"), Yield(status=3)],
        })
        executable = interpreter.load_function(function)
        assert compiles == [] and executable.code == {}
        assert executable.block_costs == {}
        warp = Warp(contexts=[_context(0)])
        for _ in range(3):  # lowered on the first entry only
            assert interpreter.execute(executable, warp, 0) == 3
        assert compiles == ["<repro:t/ws1/entry>", "<repro:t/ws1/hot>"]
        table = executable.code["inline"]
        assert set(table) == set(executable.block_costs) == {"entry", "hot"}
        for label, entry in table.items():
            assert entry[0].__code__.co_filename == f"<repro:t/ws1/{label}>"
            # body and terminator are one function
            assert entry[4] == len(function.blocks[label].instructions) + 1

    def test_warm_lowers_nothing_and_launch_only_what_runs(self, compiles):
        device = Device(config=ExecutionConfig(warp_sizes=(1, 2, 4)))
        device.register_module(VECADD_PTX)
        device.warm()
        executables = {
            width: device.cache.get("vecAdd", width) for width in (1, 2, 4)
        }
        assert compiles == []
        assert all(  # nothing lowered, priced, or numbered
            executable.code == {} and executable.block_costs == {}
            and "layout" not in vars(executable)
            for executable in executables.values()
        )
        def launch(n):  # whole warps only: none fails the bounds check
            c = device.malloc(n * 4)
            ones = device.upload(np.ones(n, dtype=np.float32))
            statistics = device.launch(
                "vecAdd", grid=(1, 1, 1), block=(n, 1, 1),
                args=[ones, ones, c, n],
            ).statistics
            np.testing.assert_array_equal(
                c.read(np.float32, n), np.full(n, 2.0)
            )
            return statistics

        # 8 warps are one batch: what it enters is priced and given
        # its batched form; a block that only ever runs batched is
        # never lowered for the sequential path.
        assert launch(32).batched_warps == 8
        assert executables[4].code == {}
        batched = set(executables[4].array_blocks)
        assert batched == set(executables[4].block_costs)
        assert compiles == [
            f"<repro:vecAdd.w4/ws4/{label}:batch>"
            for label in executables[4].array_blocks
        ]
        del compiles[:]
        # 7 warps are not. Unused widths stay IR; at width 4 the
        # divergence handler of the bounds check (its cold arm) was
        # never entered.
        assert launch(28).batched_warps == 0
        assert executables[1].code == {} and executables[2].code == {}
        entered = set(executables[4].code["inline"])
        assert entered == batched == set(executables[4].block_costs)
        assert "entry" in entered
        assert entered < set(executables[4].function.blocks)
        assert len(compiles) == len(entered)

    def test_throughput_loop_is_one_function(self):
        # Table 1's inner loop — 160 FMAs, the trip-count add, the
        # compare, the context writes and the branch — is one call.
        workload = get_workload("throughput")
        device = Device(config=vectorized_config(4))
        device.register_module(workload.module_source())
        executable = device.cache.get("throughput", 4)
        source = executable.block_source("LOOP")
        loop = executable.function.blocks["LOOP"]
        assert sum(
            isinstance(instruction, FusedMultiplyAdd)
            for instruction in loop.instructions
        ) == 160
        assert source.count(" * ") >= 160 and source.count("def ") == 1
        # every line ends in the IR instruction it starts
        assert f"# 0: {loop.instructions[0]}" in source
        assert f"# {len(loop.instructions)}: {loop.terminator}" in source

    def _mixed_dtype_function(self, out):
        """Registers written with one dtype and read with another:
        in the defining block (resolved statically) and in a successor
        (resolved by the inline guard)."""
        u32, s32, f32, u64, pred = (
            DataType.u32, DataType.s32, DataType.f32, DataType.u64,
            DataType.pred,
        )
        big = Constant(0xFFFFFFF0, u32)

        def readers(suffix, base):
            x, f, w, p = (
                _reg("x", u32), _reg("f", f32), _reg("w", u64),
                _reg("p", pred),
            )
            results = [
                # max.s32 on a .u32 value: -16 vs 5
                BinaryOp("max", s32, _reg(f"m{suffix}", s32), x,
                         Constant(5, s32)),
                # the bits of 1.5f, as an integer
                BinaryOp("add", u32, _reg(f"b{suffix}", u32), f,
                         Constant(1, u32)),
                # a 64-bit value read by a 32-bit instruction converts
                BinaryOp("add", u32, _reg(f"n{suffix}", u32), w,
                         Constant(1, u32)),
                # predicates pass through whatever reads them
                BinaryOp("and", pred, _reg(f"q{suffix}", pred), p,
                         Constant(True, pred)),
                Select(u32, _reg(f"s{suffix}", u32), Constant(7, u32),
                       Constant(9, u32), _reg(f"q{suffix}", pred)),
                BinaryOp("add", s32, _reg(f"t{suffix}", s32), p,
                         Constant(1, s32)),
            ]
            stores = [
                _store(instruction.dst, base + 8 * index, instruction.dtype)
                for index, instruction in enumerate(results)
                if instruction.dtype is not pred
            ]
            return results + stores

        return _function({
            "entry": [
                UnaryOp("mov", u32, _reg("x", u32), big),
                UnaryOp("mov", f32, _reg("f", f32), Constant(1.5, f32)),
                UnaryOp("mov", u64, _reg("w", u64),
                        Constant((1 << 40) + 3, u64)),
                Compare("lt", s32, _reg("p", pred), Constant(1, s32),
                        Constant(2, s32)),
                *readers("0", out),
                Branch("next"),
            ],
            "next": [*readers("1", out + 64), Yield(status=3)],
        })

    def test_mixed_dtype_reads_match_the_reference(self):
        from repro.testing.reference import ReferenceInterpreter

        images = {}
        for backend in (Interpreter, ReferenceInterpreter):
            memory = MemorySystem(1 << 16)
            out = memory.allocate(128)
            interpreter = backend(sandybridge(), memory)
            executable = interpreter.load_function(
                self._mixed_dtype_function(out)
            )
            interpreter.execute(
                executable, Warp(contexts=[_context(0)]), param_base=0
            )
            images[backend] = memory.read_array(out, np.uint8, 128)
            if backend is Interpreter:
                assert memory.load(DataType.s32, out) == 5
                assert memory.load(DataType.u32, out + 8) == 0x3FC00001
                assert memory.load(DataType.u32, out + 16) == 4
                assert memory.load(DataType.u32, out + 32) == 7
                first = executable.block_source("entry")
                second = executable.block_source("next")
        np.testing.assert_array_equal(
            images[Interpreter], images[ReferenceInterpreter]
        )
        np.testing.assert_array_equal(
            images[Interpreter][:64], images[Interpreter][64:]
        )
        # Same block: where the producer's dtype is known the read is
        # resolved statically (a compare's result is not tracked).
        assert first.count("coerce(") == 1
        assert ".view(W_i4)" in first and ".astype(W_u4)" in first
        # Successor: one guard per (register, dtype) read.
        assert second.count("coerce(") == 4

    @pytest.mark.parametrize(
        "terminator", [Exit(), BarrierTerm("after")], ids=["exit", "barrier"]
    )
    def test_a_scalar_only_terminator_does_not_run(self, terminator):
        # The vectorizer turns every Exit into a thread-exit yield and
        # every BarrierTerm into a barrier exit handler: neither the
        # printer nor the oracle has a form for a raw one.
        from repro.testing.reference import ReferenceInterpreter

        function = _function(
            {"entry": [terminator], "after": [Yield(status=3)]}
        )
        for backend in (Interpreter, ReferenceInterpreter):
            interpreter = backend(sandybridge(), MemorySystem(1 << 16))
            executable = interpreter.load_function(function)
            with pytest.raises(ExecutionError, match="^no "):
                interpreter.execute(
                    executable, Warp(contexts=[_context(0)]), 0
                )

    def _faulting_block(self):
        return [
            _fma("a", "x"),
            _add("b", "a"),
            _fma("c", "b"),
            Load(
                dtype=DataType.f32, space=AddressSpace.global_,
                dst=_reg("v"), base=Constant(1 << 20, DataType.u64),
            ),
            _add("d", "c"),
            Yield(status=3),
        ]

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_fault_mid_block_reports_its_own_index(self, sanitize):
        # Instruction 3 of one generated function faults: the trap PC
        # is read off the traceback line, and every register defined
        # before it is in the dump — none after.
        from repro.runtime.traps import snapshot_registers
        from repro.sanitizer import KernelSanitizer

        memory = MemorySystem(1 << 12)
        sanitizer = KernelSanitizer(memory) if sanitize else None
        if sanitize:
            memory.sanitizer = sanitizer
        interpreter = Interpreter(sandybridge(), memory, sanitizer=sanitizer)
        executable = interpreter.load_function(
            _function({"entry": self._faulting_block()})
        )
        state = interpreter.new_state()
        with pytest.raises(ExecutionError) as excinfo:
            interpreter.execute(
                executable, Warp(contexts=[_context(0)]), 0, state=state
            )
        assert excinfo.value.trap_label == "entry"
        assert excinfo.value.trap_index == 3
        assert snapshot_registers(state) == {
            "x": "0.0", "a": "1.0", "b": "3.0", "c": "2.5",
        }

    def test_fault_line_is_in_the_traceback(self):
        # The generated source is registered with linecache, so the
        # traceback shows the faulting line and the IR it came from.
        import traceback

        interpreter = Interpreter(sandybridge(), MemorySystem(1 << 12))
        executable = interpreter.load_function(
            _function({"entry": self._faulting_block()})
        )
        with pytest.raises(MemoryFault) as excinfo:
            interpreter.execute(executable, Warp(contexts=[_context(0)]), 0)
        rendered = "".join(traceback.format_exception(excinfo.value))
        assert 'File "<repro:t/ws1/entry>"' in rendered
        assert "memory._check(a, 4)" in rendered
        assert "load.global.f32" in executable.block_source("entry")

    # -- the handler idioms: constant shifts, extracts ----------------------

    _SHIFT_TYPES = ("b16", "b32", "b64", "u32", "s32", "u64", "s64")

    @staticmethod
    def _pack(name, dtype, values):
        """``name`` = the 4-wide vector of ``values``: the first one
        splat, each later one selected into its lane by ``laneid``."""
        u32 = DataType.u32
        lane, vector = _reg(f"{name}.lane", u32, 4), _reg(name, dtype, 4)
        body = [
            ContextRead("laneid", u32, lane, lane=None, pack=True),
            UnaryOp("mov", dtype, vector, Constant(values[0], dtype)),
        ]
        for k, value in enumerate(values[1:], 1):
            hit = _reg(f"{name}.is{k}", DataType.pred, 4)
            body += [
                Compare("eq", u32, hit, lane, Constant(k, u32)),
                Select(dtype, vector, Constant(value, dtype), vector, hit),
            ]
        return body

    @staticmethod
    def _emitter_and_reference(sanitize=False):
        """The block emitter (its checked template with ``sanitize``)
        and the reference interpreter, each on a memory of its own."""
        from repro.sanitizer import KernelSanitizer
        from repro.testing.reference import ReferenceInterpreter

        memory = MemorySystem(1 << 16)
        options = {}
        if sanitize:
            memory.sanitizer = options["sanitizer"] = KernelSanitizer(memory)
        return (
            Interpreter(sandybridge(), memory, **options),
            ReferenceInterpreter(sandybridge(), MemorySystem(1 << 16)),
        )

    def _run_both(self, function, size):
        """``function`` on the emitter and on the reference: the guest
        memory images, and the emitter's executable."""
        images, executables = [], []
        for interpreter in self._emitter_and_reference():
            memory = interpreter.memory
            out = memory.allocate(size)
            loaded = interpreter.load_function(function(out))
            interpreter.execute(
                loaded,
                Warp(contexts=[_context(x) for x in range(loaded.warp_size)]),
                param_base=0,
            )
            images.append(memory.read_array(out, np.uint8, size))
            executables.append(loaded)
        return images[0], images[1], executables[0]

    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("name", _SHIFT_TYPES)
    def test_constant_shifts_match_the_table_and_the_reference(
        self, name, width
    ):
        # Every constant amount around the clamp, on every integer
        # type: one inline shift each, bit-equal to the table function
        # (which register amounts still go through) and the reference.
        dtype = DataType[name]
        bits = dtype.size * 8
        top = 1 << (bits - 1)
        values = [top | 0x35, 1, top - 1, 0x6A]
        if dtype.is_signed:
            values = [value - (value >= top) * (1 << bits) for value in values]
        amounts = [
            Constant(amount, DataType.s32 if amount < 0 else DataType.u32)
            for amount in (0, 1, bits - 1, bits, bits + 1, 2**31, -1)
        ]
        cases = [
            (op, amount)
            for op in ("shl", "lshr", "ashr")
            for amount in amounts
        ]
        x = _reg("x", dtype, width)

        def function(out):
            body = (
                self._pack("x", dtype, values)
                if width > 1
                else [UnaryOp("mov", dtype, x, Constant(values[0], dtype))]
            )
            for index, (op, amount) in enumerate(cases):
                y = _reg(f"y{index}", dtype, width)
                body.append(BinaryOp(op, dtype, y, x, amount))
                for lane in range(width):
                    body.append(_store(
                        y, out + (index * width + lane) * 8, dtype, lane
                    ))
            return _function(
                {"entry": body + [Yield(status=3)]}, warp_size=width
            )

        size = len(cases) * width * 8
        image, reference, executable = self._run_both(function, size)
        np.testing.assert_array_equal(image, reference)
        operand = np.array(values[:width], dtype=dtype.numpy_dtype)
        for index, (op, amount) in enumerate(cases):
            expected = np.atleast_1d(lowering._BINARY_IMPL[op](
                operand if width > 1 else operand[0],
                lowering._typed_constant(amount, dtype),
                dtype,
            ))
            stored = image[index * width * 8:(index + 1) * width * 8]
            np.testing.assert_array_equal(
                stored.reshape(width, 8)[:, :dtype.size].copy().view(
                    dtype.numpy_dtype
                ).ravel(),
                expected,
                err_msg=f"{op}.{name} by {amount}",
            )
        # ... and none of them is a call of the table function.
        code = executable.code["inline"]["entry"][0]
        table = {lowering._BINARY_IMPL[op] for op in lowering._SHIFT_RULE}
        called = {
            code.__globals__[constant]
            for constant in re.findall(r"\b(k\d+)\(", code.source)
        }
        assert not called & table
        shifts = [
            line for line in code.source.splitlines()
            if re.search(r"= (shl|lshr|ashr)\.", line)
        ]
        assert len(shifts) == len(cases)
        assert all(
            re.search(r" = .*(<<|>>|np\.zeros_like).*#", line)
            for line in shifts
        )

    def test_register_shift_amounts_still_call_the_table(self):
        u32 = DataType.u32
        function = _function({"entry": [
            UnaryOp("mov", u32, _reg("k", u32), Constant(3, u32)),
            BinaryOp("shl", u32, _reg("y", u32), Constant(5, u32),
                     _reg("k", u32)),
            Yield(status=3),
        ]})
        executable = Interpreter(
            sandybridge(), MemorySystem(1 << 12)
        ).load_function(function)
        source = executable.block_source("entry")
        code = executable.code["inline"]["entry"][0]
        (constant,) = re.findall(r"= (k\d+)\(", source)
        assert code.__globals__[constant] is lowering._BINARY_IMPL["shl"]

    def _stores_of(self, register, out, dtype=DataType.u32):
        """Store every lane of the 4-wide ``register`` at ``out``, each
        by a store of that lane."""
        return [
            _store(register, out + 4 * lane, dtype, lane) for lane in range(4)
        ]

    def test_lane_reads_of_a_live_in_vector_share_one_shape_guard(self):
        # A vector from another block (a Continuation may have
        # transplanted it) may hold a scalar: the lanes the stores read
        # share one shape guard, and each store is of a dtype the
        # register is not known to carry, which converts its lane (a
        # whole-vector conversion is a local store group's).
        u32 = DataType.u32
        full = _reg("v", u32, 4)

        def function(out):
            return _function({
                "entry": [*self._pack("v", u32, [5, 0, 0, 6]), Branch("last")],
                "last": [*self._stores_of(full, out), Yield(status=3)],
            }, warp_size=4)

        image, reference, executable = self._run_both(function, 16)
        np.testing.assert_array_equal(image, reference)
        assert list(image.view(np.uint32)) == [5, 0, 0, 6]
        last = executable.block_source("last")
        assert last.count("isinstance") == 1
        assert len(re.findall(r" if v\d+ else", last)) == 4
        assert ".astype(W_u4, copy=False)" not in last
        assert last.count("if type(t)") == 4

    def test_served_vecadd_blocks_copy_nothing(self):
        # The launch benchmarks/perf/serve.py times: 64 threads of its
        # vecAdd at width 4 (on the sequential path, which the first
        # launch of an uncompiled kernel takes: a batched walk lowers
        # nothing). No block it enters copies a partial vector or
        # tests a shape.
        serve = Path(__file__).parents[1] / "benchmarks" / "perf" / "serve.py"
        if not serve.exists():
            pytest.skip("benchmarks/perf is not part of this checkout")
        ptx = re.search(
            r'VECADD_PTX = r"""(.*?)"""', serve.read_text(), re.S
        ).group(1)
        device = Device(config=vectorized_config(4))
        device.register_module(ptx)
        n = 64
        ones = device.upload(np.ones(n, dtype=np.float32))
        c = device.malloc(n * 4)
        device.launch(
            "vecAdd", grid=(1, 1, 1), block=(n, 1, 1), args=[ones, ones, c, n]
        )
        np.testing.assert_array_equal(c.read(np.float32, n), np.full(n, 2.0))
        executable = device.cache.get("vecAdd", 4)
        (table,) = executable.code.values()
        assert {"entry", "fall_1"} <= set(table)
        for label, entry in table.items():
            assert ".copy()" not in entry[0].source, label
            assert "ndim" not in entry[0].source, label

    @staticmethod
    def _hot_blocks(*apps) -> str:
        import os
        import subprocess
        import sys

        root = Path(__file__).parents[1]
        environment = {
            name: value for name, value in os.environ.items()
            if not name.startswith("REPRO_")
        }
        environment["PYTHONPATH"] = str(root / "src")
        done = subprocess.run(
            [sys.executable, str(root / "examples" / "hot_blocks.py"),
             *apps, "--scale", "0.1", "--top", "2"],
            capture_output=True, text=True, timeout=120, env=environment,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    @staticmethod
    def _block_row(path, warps):
        """A ranked block: label, path, entries, warps per entry,
        instructions, us per entry, share, handler or body."""
        return re.compile(
            rf"^  \S+ +{path} +\d+ +{warps} +\d+ +\d+\.\d+ +\d+% +"
            r"(handler|body)$", re.M,
        )

    def test_hot_blocks_script_still_finds_its_hook(self):
        # examples/hot_blocks.py measures per-block host time by
        # wrapping _BlockTable.__missing__ from outside; nothing under
        # src/ knows, so this is what notices when the hook moves.
        # Collatz at this scale runs all but one batch's worth of its
        # warps one at a time.
        printed = self._hot_blocks("Collatz")
        kernel = printed.split("== collatzSteps.w4/ws4:")[1]
        assert self._block_row("seq", 1).search(kernel)
        fit = printed.split("per-opcode host cost, seq path")[1]
        assert re.search(r"^  \S+ +\d+ +\d+\.\d+ +\d+\.\d+$", fit, re.M)

    def test_hot_blocks_script_reports_what_the_batches_did(self):
        # Likewise for its wrappers around _ArrayBlocks.__missing__ and
        # ArrayBackend.execute_batch and its reading of the admission
        # record. Transpose only ever runs batched: its blocks must
        # still be ranked, or the default path would vanish from the
        # script.
        printed = self._hot_blocks("Transpose")
        kernel, table = printed.split("== transposeTiled.w4/ws4:")[1:3]
        assert self._block_row("batch", 16).search(kernel)
        assert not self._block_row("seq", 1).search(kernel)
        # entry id and label, batches, warps, instructions and us per
        # batch, completed, aborted, refusals left
        assert "batches by entry point" in table
        assert re.search(
            r"^  \d+ \S+ +\d+ +\d+ +\d+ +\d+\.\d+ +\d+ +\d+ +\d+$",
            table, re.M,
        )
        assert "per-opcode host cost, batch path" in printed
        assert "per-opcode host cost, seq path" not in printed

    def test_hot_blocks_script_prints_the_batch_size_table(self):
        # The provenance of MIN_BATCH_WARPS is this command: a row for
        # the sequential path and one per batch size that occurred,
        # each calls, warp-instructions, us per warp-instruction.
        printed = self._hot_blocks("Transpose", "--batch-sizes")
        row = r"^  {} +{} +\d+ +\d+ +\d+\.\d+$"
        assert re.search(row.format("sequential", "1"), printed, re.M)
        assert re.search(row.format("completed", r"\d+\+"), printed, re.M)

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_fault_after_a_packed_vector_reports_its_own_index(
        self, sanitize
    ):
        # The load faults after a vector built from lane selects; the
        # dump lists what the PTX names, and equals the reference's.
        from repro.runtime.traps import snapshot_registers

        u32 = DataType.u32
        function = _function({"entry": [
            *self._pack("r10", u32, [1, 2, 3, 4]),
            BinaryOp("add", u32, _reg("r2", u32, 4), _reg("r10", u32, 4),
                     Constant(1, u32)),
            Load(
                dtype=DataType.f32, space=AddressSpace.global_,
                dst=_reg("f1"), base=Constant(1 << 20, DataType.u64),
            ),
            Yield(status=3),
        ]}, warp_size=4)
        dumps = []
        for interpreter in self._emitter_and_reference(sanitize):
            executable = interpreter.load_function(function)
            state = interpreter.new_state()
            with pytest.raises(ExecutionError) as excinfo:
                interpreter.execute(
                    executable,
                    Warp(contexts=[_context(x) for x in range(4)]),
                    0,
                    state=state,
                )
            assert excinfo.value.trap_label == "entry"
            assert excinfo.value.trap_index == 9
            dumps.append(snapshot_registers(state))
        assert dumps[0] == dumps[1]
        # natural order, compiler temporaries (r10.lane, ...) left out
        assert list(dumps[0].items()) == [
            ("r2", "[2, 3, 4, 5]"), ("r10", "[1, 2, 3, 4]"),
        ]


# ---------------------------------------------------------------------------
# What the frame proves: unchecked local accesses, private temporaries
# ---------------------------------------------------------------------------


def _frame_function(tail=()):
    """A 4-wide block over a 16-byte frame: each lane stores ``x<l> =
    tid + 5`` at local offsets 0 and 12 and loads ``y<l>`` back from 12
    (all six accesses inside the frame and aligned), then ``tail``."""
    u32, u64, local = DataType.u32, DataType.u64, AddressSpace.local
    body, accesses = [], []
    for lane in range(4):
        t, x = _reg(f"t{lane}", u32), _reg(f"x{lane}", u32)
        body += [
            ContextRead("tid.x", u32, t, lane),
            BinaryOp("add", u32, x, t, Constant(5, u32)),
        ]
        accesses += [
            Store(u32, local, Constant(0, u64), x, lane=lane),
            Store(u32, local, Constant(12, u64), x, lane=lane),
            Load(u32, _reg(f"y{lane}", u32), local, Constant(12, u64),
                 lane=lane),
        ]
    body += accesses
    function = _function(
        {"entry": [*body, *tail, Yield(status=3)]}, warp_size=4
    )
    function.local_segment_size = 16
    return function


def _moves(block, kinds=(Load, Store)):
    """A yield handler's spills and restores in ``block``: its local
    accesses of ``kinds`` at a constant slot."""
    return [
        instruction for instruction in block.instructions
        if isinstance(instruction, kinds)
        and instruction.space is AddressSpace.local
        and isinstance(instruction.base, Constant)
    ]


class TestWhatTheFrameProves:
    def test_collatz_handlers_print_only_what_is_unproven(self):
        # Entry and exit handlers: spills and restores at constant
        # offsets inside the frame — no bounds check, no alignment
        # branch, one count per straight-line run, and no register-file
        # write of a temporary the block keeps to itself; in the warp
        # printer and in the batch printer, where each move is one
        # (B, w) access over every lane's frame base.
        device = Device(config=vectorized_config(4))
        device.register_module(COLLATZ_PTX)
        device.warm()
        executable = device.cache.resident("collatz", 4)
        handlers = [
            label for label, block in executable.function.blocks.items()
            if label.endswith(("_entry", "_exit")) and _moves(block)
        ]
        assert len(handlers) >= 4  # (melding, forced on, leaves fewer)
        kept = 0
        for label in handlers:
            private = lowering._block_private(
                executable, executable.function.blocks[label]
            )
            kept += len(private)
            sources = (
                executable.block_source(label), executable.batch_source(label)
            )
            for source in sources:
                assert "local_base" in source, label
                assert "_check" not in source and "_unaligned" not in source
                assert "union(" not in source
                written = re.findall(r"regs\[(\d+)\] = ", source)
                assert not set(map(int, written)) & set(private), label
                for count in ("load_count", "store_count"):
                    assert source.count(count) <= 1, (label, count)
            moves = _moves(executable.function.blocks[label])
            assert sources[1].count("[(local_bases + ") == len(moves)
            assert "local_base0" not in sources[1], label
        # The private temporaries left are the resume points' lanes; a
        # local load or store group has no per-lane temporary.
        assert kept > 0

    def test_collatz_moves_whole_registers(self):
        # In the inline template a framed spill (a local store group)
        # is one tolist() of the vector's unsigned words, stored through
        # the arena's unsigned memoryview; a restore (a packed local
        # load group) and a packed launch coordinate are one unsigned
        # array; a branch sum is one count. The checked template moves
        # lane by lane, as before.
        device = Device(config=vectorized_config(4))
        device.register_module(COLLATZ_PTX)
        device.warm()
        executable = device.cache.resident("collatz", 4)
        moved = {"spill": 0, "restore": 0, "count": 0}
        for label, block in executable.function.blocks.items():
            source = executable.block_source(label)
            checked = executable.blocks("checked")[label][0].source
            assert "M_u" not in checked and ".tolist()" not in checked
            if _moves(block, Store):
                assert ".tolist()" in source and "V_u" not in source
                moved["spill"] += source.count("M_u")
            if _moves(block, Load):
                assert "np.zeros" not in source, label
                moved["restore"] += source.count("np.array((M_u")
            if any(isinstance(i, Reduce) for i in block.instructions):
                assert "np.asarray" not in source, label
                moved["count"] += source.count(".tolist().count(True)")
        assert min(moved.values()) > 0, moved
        assert "np.array((contexts[0].tid[0], contexts[1].tid[0]," in (
            executable.block_source("entry")
        )

    def test_what_the_frame_does_not_prove_keeps_its_checks(self):
        u32, u64, local = DataType.u32, DataType.u64, AddressSpace.local
        function = _function({"entry": [
            Load(u32, _reg("a", u32), local, Constant(12, u64)),  # inside
            Load(u32, _reg("b", u32), local, Constant(16, u64)),  # past it
            Load(u32, _reg("c", u32), local, Constant(2, u64)),  # unaligned
            Load(u32, _reg("d", u32), local, _reg("i", u64)),  # an index
            Yield(status=3),
        ]}, warp_size=4)
        function.local_segment_size = 16
        from repro.machine.array_backend import ArrayBackend

        executable = ArrayBackend(
            sandybridge(), MemorySystem(1 << 16)
        ).load_function(function)
        warp = executable.block_source("entry")
        assert "V_u4[(local_base0 + 12) >> 2]" in warp
        assert warp.count("memory._check(a, 4)") == 3
        assert warp.count("load_unaligned") == 3
        batch = executable.batch_source("entry")
        assert "V_u4[(local_base0 + 12) >> 2]" in batch
        assert batch.count("memory._check_batch(a, 4)") == 3

    @pytest.mark.parametrize(
        "lane_base", [1058, 16, (1 << 12) - 8],
        ids=["misaligned", "below the null guard", "past the arena end"],
    )
    def test_a_frame_that_does_not_fit_runs_the_checked_template(
        self, lane_base
    ):
        # A hand-built warp whose lane 2 brings a frame the inline
        # template cannot trust runs the checked template, one call of
        # the guest-access seam per access, which the memory system
        # checks: the same fault (address and size), trap PC and
        # register dump as the reference — or, misaligned, the same
        # bytes and counts.
        from repro.runtime.traps import snapshot_registers
        from repro.testing.reference import ReferenceInterpreter

        observed = []
        for backend in (Interpreter, ReferenceInterpreter):
            memory = MemorySystem(1 << 12)
            interpreter = backend(sandybridge(), memory)
            executable = interpreter.load_function(_frame_function())
            contexts = [_context(x) for x in range(4)]
            for lane, context in enumerate(contexts):
                context.local_base = 1024 + 16 * lane
            contexts[2].local_base = lane_base
            state = interpreter.new_state()
            fault = None
            try:
                interpreter.execute(
                    executable, Warp(contexts=contexts), 0, state=state
                )
            except MemoryFault as caught:
                fault = (
                    caught.address, caught.size,
                    caught.trap_label, caught.trap_index,
                )
            observed.append((
                fault, fault and snapshot_registers(state),
                memory.data.tobytes(), (memory.load_count, memory.store_count),
            ))
            if backend is Interpreter:
                assert set(executable.code) == {"checked"}
        assert observed[0] == observed[1]
        assert (observed[0][0] is None) == (lane_base == 1058)

    def test_a_fault_after_discharged_accesses_sees_exact_counts(self):
        # Six unchecked accesses per lane, then a load the arena cannot
        # serve: the counts flushed before it are the reference's.
        from repro.runtime.traps import snapshot_registers
        from repro.testing.reference import ReferenceInterpreter

        out_of_arena = Load(
            DataType.u32, _reg("z", DataType.u32), AddressSpace.global_,
            Constant(1 << 20, DataType.u64),
        )
        observed = []
        for backend in (Interpreter, ReferenceInterpreter):
            memory = MemorySystem(1 << 12)
            interpreter = backend(sandybridge(), memory)
            executable = interpreter.load_function(
                _frame_function([out_of_arena])
            )
            contexts = [_context(x) for x in range(4)]
            for lane, context in enumerate(contexts):
                context.local_base = 1024 + 16 * lane
            state = interpreter.new_state()
            with pytest.raises(MemoryFault) as caught:
                interpreter.execute(
                    executable, Warp(contexts=contexts), 0, state=state
                )
            observed.append((
                caught.value.trap_index, snapshot_registers(state),
                memory.load_count, memory.store_count,
            ))
            if backend is Interpreter:
                assert set(executable.code) == {"inline"}
                source = executable.block_source("entry")
                assert "memory.store_count += 8" in source
                assert "memory.load_count += 4" in source
        assert observed[0] == observed[1]
        assert observed[0][2:] == (4, 8)

    def test_the_managers_check_is_the_slabs_extremes(self):
        fits = lowering.frames_fit
        assert fits(32, 1024, 48, 64, 1 << 16)
        assert fits(0, 3, 5, 64, 64)  # no frame: nothing to fit
        assert not fits(32, 1032, 48, 64, 1 << 16)  # first misaligned
        assert not fits(32, 1024, 40, 64, 1 << 16)  # stride misaligned
        assert not fits(32, 48, 48, 64, 1 << 16)  # below the guard
        assert not fits(32, 1024, 48, 64, 1024 + 63 * 48 + 31)  # last out


# ---------------------------------------------------------------------------
# Satellite: static warp formation forms the full aligned window
# ---------------------------------------------------------------------------


def _context(x: int, y: int = 0, cta=(0, 0, 0)) -> ThreadContext:
    return ThreadContext(
        tid=(x, y, 0),
        ntid=(8, 2, 1),
        ctaid=cta,
        nctaid=(1, 1, 1),
        shared_base=0,
        local_base=0,
        resume_point=0,
    )


class TestRegisterFileLayout:
    def test_every_printed_block_keeps_to_the_file(self):
        # The lean templates' register file holds the registers that
        # cross a block: on every block of the 43 apps at widths 1, 2
        # and 4, every regs[n] a printed inline or batch block names is
        # below its length, and the compiler temporaries private to a
        # block are numbered after it; the numbering is otherwise
        # first appearance.
        config = ExecutionConfig(warp_sizes=(1, 2, 4))
        blocks = 0
        for registered in all_workloads():
            device = Device(config=config)
            device.register_module(type(registered)().module_source())
            device.warm()
            for specialization in device.cache.cached_specializations():
                executable = device.cache.resident(*specialization)
                slots, file = (
                    executable.register_slots, executable.register_count
                )
                private = {
                    slot for block in executable.private.values()
                    for slot in block
                }
                assert private == set(range(file, len(slots)))
                names = [
                    register.name
                    for register in executable.function.registers()
                ]
                assert sorted(slots, key=slots.get) == sorted(
                    names, key=lambda name: slots[name] >= file
                )
                for label in executable.function.blocks:
                    sources = (
                        executable.block_source(label),
                        executable.batch_source(label),
                    )
                    for source in filter(None, sources):
                        named = re.findall(r"regs\[(\d+)\]", source)
                        assert max(map(int, named), default=-1) < file
                    blocks += 1
        assert blocks > 1000


class TestStaticFormation:
    def _manager(self) -> ExecutionManager:
        device = Device(config=static_tie_config(4))
        return ExecutionManager(
            worker_id=0,
            machine=device.machine,
            memory=device.memory,
            interpreter=device.interpreter,
            cache=device.cache,
            config=device.config,
        )

    def test_scrambled_pool_forms_full_warp(self):
        # After divergent re-entry the pool order is arbitrary. A
        # mid-window anchor (tid.x=2 first) must still produce the
        # full run [0, 1, 2, 3], not just [2, 3].
        manager = self._manager()
        ready = _ReadyPool()
        for x in (2, 0, 1, 3):
            ready.push([_context(x)], 0)
        _, members = manager._form_static(ready, limit=4)
        assert [m.tid[0] for m in members] == [0, 1, 2, 3]
        assert ready.size == 0

    def test_run_starts_at_lowest_present_thread(self):
        # Window [4, 8) with threads {5, 6, 7}: the run is [5, 6, 7]
        # even though the window base 4 is absent.
        manager = self._manager()
        ready = _ReadyPool()
        for x in (6, 7, 5):
            ready.push([_context(x)], 0)
        _, members = manager._form_static(ready, limit=4)
        # warp_sizes (1, 2, 4): a 3-thread run executes as width 2.
        assert [m.tid[0] for m in members] == [5, 6]
        assert ready.size == 1

    def test_gap_splits_the_run(self):
        manager = self._manager()
        ready = _ReadyPool()
        for x in (0, 1, 3):
            ready.push([_context(x)], 0)
        _, members = manager._form_static(ready, limit=4)
        assert [m.tid[0] for m in members] == [0, 1]
        assert ready.size == 1  # tid.x=3 went back to the pool


# ---------------------------------------------------------------------------
# Satellite: arena free validation
# ---------------------------------------------------------------------------


class TestMemoryFree:
    def test_free_beyond_break_rejected(self):
        memory = MemorySystem()
        base = memory.allocate(64)
        with pytest.raises(MemoryFault):
            memory.free(base, 128)

    def test_double_free_rejected(self):
        memory = MemorySystem()
        first = memory.allocate(64)
        memory.allocate(64)  # keep `first` below the break
        memory.free(first, 64)
        with pytest.raises(MemoryFault):
            memory.free(first, 64)

    def test_overlapping_free_rejected(self):
        memory = MemorySystem()
        first = memory.allocate(64)
        memory.allocate(64)
        memory.free(first, 32)
        with pytest.raises(MemoryFault):
            memory.free(first + 16, 32)

    def test_top_of_arena_free_recedes_break(self):
        memory = MemorySystem()
        start = memory.bytes_allocated
        base = memory.allocate(64)
        memory.free(base, 64)
        assert memory.bytes_allocated == start

    def test_align_padding_is_not_leaked(self):
        # allocate(10) leaves the break unaligned; the next aligned
        # allocation's padding must stay reclaimable so that freeing
        # everything returns the break to its starting point.
        memory = MemorySystem()
        start = memory.bytes_allocated
        first = memory.allocate(10)
        second = memory.allocate(16)
        assert second % 16 == 0
        memory.free(second, 16)
        memory.free(first, 10)
        assert memory.bytes_allocated == start

    def test_padding_is_reusable(self):
        memory = MemorySystem()
        first = memory.allocate(10)
        memory.allocate(16)
        # The 6 padding bytes between the two live in the free list.
        padding = memory.allocate(4, align=1)
        assert first + 10 <= padding < first + 16


# ---------------------------------------------------------------------------
# Satellite: spill layout computed once per kernel
# ---------------------------------------------------------------------------


class TestSpillLayoutCache:
    def test_computed_once_and_dropped_on_invalidate(self):
        # The layout is one of the scalar IR's analyses, and the scalar
        # IR states the frame it gives: kept until the scalar IR goes.
        device = Device()
        device.register_module(VECADD_PTX)
        first = device.cache.scalar_ir("vecAdd")
        assert device.cache.scalar_ir("vecAdd") is first
        device.cache.invalidate("vecAdd")
        third = device.cache.scalar_ir("vecAdd")
        assert third.frame_bytes == first.frame_bytes
        assert third is not first

    def test_layout_shape(self):
        device = Device()
        device.register_module(VECADD_PTX)
        scalar = device.cache.scalar_ir("vecAdd")
        assert scalar.spill_size > 0
        assert scalar.frame_bytes % 16 == 0
        assert 0 <= scalar.frame_bytes - scalar.spill_size < 16


# ---------------------------------------------------------------------------
# Satellite: ready-pool round-robin fairness
# ---------------------------------------------------------------------------


class TestReadyPoolFairness:
    def test_entry_points_drain_in_rotation(self):
        pool = _ReadyPool(cross_cta=True)
        for entry in (0, 5, 9):
            for x in range(4):
                context = _context(x)
                context.resume_point = entry
                pool.push([context], 0)
        seen = []
        while pool:
            _, group = pool.pop_group(2)
            seen.append(group[0].resume_point)
        # Three keys, two threads per pop: strict rotation.
        assert seen == [0, 5, 9, 0, 5, 9]

    def test_pushed_back_extras_do_not_starve_other_keys(self):
        pool = _ReadyPool(cross_cta=True)
        for x in range(8):
            context = _context(x)
            context.resume_point = 0
            pool.push([context], 0)
        straggler = _context(0)
        straggler.resume_point = 7
        pool.push([straggler], 0)
        _, first = pool.pop_group(4)
        assert {c.resume_point for c in first} == {0}
        pool.push(first[2:], 0)  # the warp former returns leftovers
        _, second = pool.pop_group(4)
        assert {c.resume_point for c in second} == {7}


# ---------------------------------------------------------------------------
# Satellite: specialization selection below every compiled width
# ---------------------------------------------------------------------------


class TestSpecializationSelection:
    def test_group_smaller_than_every_vector_width(self):
        # warp_sizes (1, 4): a 3-thread ready group fits no vector
        # specialization, so formation must fall back to scalar.
        device = Device(config=ExecutionConfig(warp_sizes=(1, 4)))
        assert device.cache.specialization_for(3) == 1
        assert device.cache.specialization_for(4) == 4
        assert device.cache.specialization_for(5) == 4

    def test_sub_width_cta_executes_scalar(self, rng):
        device = Device(config=ExecutionConfig(warp_sizes=(1, 4)))
        device.register_module(VECADD_PTX)
        n = 6  # two CTAs of 3 threads: below the only vector width
        a = rng.standard_normal(n).astype(np.float32)
        b = rng.standard_normal(n).astype(np.float32)
        c = device.malloc(n * 4)
        result = device.launch(
            "vecAdd", grid=(2, 1, 1), block=(3, 1, 1),
            args=[device.upload(a), device.upload(b), c, n],
        )
        assert set(result.statistics.warp_size_histogram) == {1}
        np.testing.assert_array_equal(
            device.memcpy_dtoh(c, np.float32, n), a + b
        )
