"""Machine layer tests: memory, descriptor, cost model, interpreter."""

import numpy as np
import pytest

from repro.errors import ExecutionError, MemoryFault
from repro.ir import (
    BinaryOp,
    Branch,
    Compare,
    CondBranch,
    Constant,
    Convert,
    Exit,
    FusedMultiplyAdd,
    Intrinsic,
    IRFunction,
    Load,
    Select,
    Store,
    Switch,
    UnaryOp,
    VirtualRegister,
    Yield,
)
from repro.machine import (
    Interpreter,
    MemorySystem,
    avx_machine,
    build_cost_table,
    knights_ferry,
    sandybridge,
    vector_register_pressure,
)
from repro.ptx.types import AddressSpace, DataType
from repro.runtime.context import ThreadContext, Warp


def reg(name, dtype=DataType.u32, width=1):
    return VirtualRegister(name=name, dtype=dtype, width=width)


def const(value, dtype=DataType.u32):
    return Constant(value, dtype)


def make_context(tid=0, local_base=0, shared_base=0):
    return ThreadContext(
        tid=(tid, 0, 0),
        ntid=(32, 1, 1),
        ctaid=(0, 0, 0),
        nctaid=(1, 1, 1),
        shared_base=shared_base,
        local_base=local_base,
    )


class TestMemorySystem:
    def test_roundtrip_all_dtypes(self):
        memory = MemorySystem(1 << 16)
        cases = [
            (DataType.u8, 200),
            (DataType.s8, -100),
            (DataType.u16, 60000),
            (DataType.s32, -123456),
            (DataType.u32, 0xDEADBEEF),
            (DataType.u64, 1 << 60),
            (DataType.f32, 1.5),
            (DataType.f64, -2.25),
            (DataType.pred, True),
        ]
        for dtype, value in cases:
            address = memory.allocate(16)
            memory.store(dtype, address, value)
            loaded = memory.load(dtype, address)
            assert loaded == value, dtype

    def test_unaligned_access(self):
        memory = MemorySystem(1 << 12)
        base = memory.allocate(16)
        memory.store(DataType.f32, base + 1, 3.25)
        assert memory.load(DataType.f32, base + 1) == np.float32(3.25)

    def test_null_page_faults(self):
        memory = MemorySystem(1 << 12)
        with pytest.raises(MemoryFault):
            memory.load(DataType.u32, 0)

    def test_out_of_bounds_faults(self):
        memory = MemorySystem(1 << 12)
        with pytest.raises(MemoryFault):
            memory.load(DataType.u32, (1 << 12) - 2)

    def test_arena_exhaustion(self):
        memory = MemorySystem(1 << 10)
        with pytest.raises(MemoryFault):
            memory.allocate(1 << 11)

    def test_allocation_alignment(self):
        memory = MemorySystem(1 << 12)
        memory.allocate(3)
        aligned = memory.allocate(8, align=16)
        assert aligned % 16 == 0

    def test_array_roundtrip(self):
        memory = MemorySystem(1 << 16)
        data = np.arange(100, dtype=np.float32)
        address = memory.allocate(data.nbytes)
        memory.write_array(address, data)
        assert np.array_equal(
            memory.read_array(address, np.float32, 100), data
        )

    def test_reset_clears(self):
        memory = MemorySystem(1 << 12)
        address = memory.allocate(4)
        memory.store(DataType.u32, address, 7)
        memory.reset()
        fresh = memory.allocate(4)
        assert memory.load(DataType.u32, fresh) == 0

    def test_access_counters(self):
        memory = MemorySystem(1 << 12)
        address = memory.allocate(4)
        memory.store(DataType.u32, address, 1)
        memory.load(DataType.u32, address)
        assert memory.store_count == 1
        assert memory.load_count == 1


class TestDescriptor:
    def test_sandybridge_peak_matches_paper(self):
        machine = sandybridge()
        assert machine.peak_vector_gflops == pytest.approx(108.8)
        assert machine.peak_scalar_gflops == pytest.approx(27.2)

    def test_vector_chunks(self):
        machine = sandybridge()
        assert machine.vector_chunks(1) == 1
        assert machine.vector_chunks(4) == 1
        assert machine.vector_chunks(8) == 2
        assert machine.vector_chunks(5) == 2

    def test_avx_machine_is_8_wide(self):
        assert avx_machine().vector_width == 8

    def test_knights_ferry_is_16_wide_manycore(self):
        machine = knights_ferry()
        assert machine.vector_width == 16
        assert machine.cores == 32


class TestCostModel:
    def _simple_function(self, width):
        function = IRFunction("f", warp_size=width)
        block = function.add_block("entry")
        block.append(
            FusedMultiplyAdd(
                dtype=DataType.f32,
                dst=reg("acc", DataType.f32, width),
                a=reg("acc", DataType.f32, width),
                b=const(2.0, DataType.f32),
                c=const(1.0, DataType.f32),
            )
        )
        block.append(Exit())
        return function

    def test_vector_fma_costs_one_chunk(self):
        machine = sandybridge()
        function = self._simple_function(4)
        table = build_cost_table(function, machine)
        fma = function.blocks["entry"].instructions[0]
        assert table.cost_of(fma).cycles == 1
        assert table.cost_of(fma).flops == 8

    def test_wide_fma_costs_two_chunks(self):
        machine = sandybridge()
        function = self._simple_function(8)
        table = build_cost_table(function, machine)
        fma = function.blocks["entry"].instructions[0]
        # 2 chunks; no spill penalty (pressure is low here)
        assert table.cost_of(fma).cycles == 2

    def test_register_pressure_penalty(self):
        machine = sandybridge()
        function = IRFunction("f", warp_size=8)
        entry = function.add_block("entry")
        registers = [
            reg(f"acc{i}", DataType.f32, 8) for i in range(12)
        ]
        for register in registers:
            entry.append(
                FusedMultiplyAdd(
                    dtype=DataType.f32, dst=register, a=register,
                    b=const(1.0, DataType.f32),
                    c=const(0.5, DataType.f32),
                )
            )
        entry.append(Branch("again"))
        again = function.add_block("again")
        for register in registers:
            again.append(
                FusedMultiplyAdd(
                    dtype=DataType.f32, dst=register, a=register,
                    b=const(1.0, DataType.f32),
                    c=const(0.5, DataType.f32),
                )
            )
        again.append(Exit())
        pressure = vector_register_pressure(function, machine)
        assert pressure == 24  # 12 regs x 2 chunks
        table = build_cost_table(function, machine)
        assert table.spilling
        fma = function.blocks["entry"].instructions[0]
        # base 2 chunks + spill penalty 2 * 2 chunks
        assert table.cost_of(fma).cycles == 6

    def test_memory_op_cost(self):
        machine = sandybridge()
        function = IRFunction("f")
        block = function.add_block("entry")
        block.append(
            Load(
                dtype=DataType.f32,
                dst=reg("x", DataType.f32),
                space=AddressSpace.global_,
                base=const(0x100, DataType.u64),
            )
        )
        block.append(Exit())
        table = build_cost_table(function, machine)
        load = function.blocks["entry"].instructions[0]
        assert table.cost_of(load).cycles == machine.memory_cost


class TestInterpreter:
    def _run(self, build, width=1, contexts=None, memory=None):
        """Build a function with `build(function, block)`, execute one
        warp, return (state registers via out-stores, memory)."""
        machine = sandybridge()
        memory = memory or MemorySystem(1 << 16)
        interpreter = Interpreter(machine, memory)
        function = IRFunction("t", warp_size=width)
        block = function.add_block("entry")
        build(function, block)
        if not block.is_terminated:
            block.append(Yield(status=3))
        executable = interpreter.load_function(function)
        contexts = contexts or [make_context(i) for i in range(width)]
        warp = Warp(contexts=contexts)
        status = interpreter.execute(executable, warp, param_base=0)
        return status, memory

    def test_store_load_roundtrip(self):
        memory = MemorySystem(1 << 16)
        out = memory.allocate(4)

        def build(function, block):
            block.append(
                BinaryOp(op="add", dtype=DataType.u32, dst=reg("a"),
                         a=const(40), b=const(2))
            )
            block.append(
                Store(dtype=DataType.u32, space=AddressSpace.global_,
                      base=const(out, DataType.u64), value=reg("a"))
            )

        self._run(build, memory=memory)
        assert memory.load(DataType.u32, out) == 42

    def test_integer_wraparound(self):
        memory = MemorySystem(1 << 16)
        out = memory.allocate(4)

        def build(function, block):
            block.append(
                BinaryOp(op="add", dtype=DataType.u32, dst=reg("a"),
                         a=const(0xFFFFFFFF), b=const(2))
            )
            block.append(
                Store(dtype=DataType.u32, space=AddressSpace.global_,
                      base=const(out, DataType.u64), value=reg("a"))
            )

        self._run(build, memory=memory)
        assert memory.load(DataType.u32, out) == 1

    def test_signed_division_truncates(self):
        memory = MemorySystem(1 << 16)
        out = memory.allocate(4)

        def build(function, block):
            block.append(
                BinaryOp(op="div", dtype=DataType.s32,
                         dst=reg("a", DataType.s32),
                         a=const(-7, DataType.s32),
                         b=const(2, DataType.s32))
            )
            block.append(
                Store(dtype=DataType.s32, space=AddressSpace.global_,
                      base=const(out, DataType.u64), value=reg("a"))
            )

        self._run(build, memory=memory)
        assert memory.load(DataType.s32, out) == -3  # trunc, not floor

    def test_division_by_zero_yields_zero(self):
        memory = MemorySystem(1 << 16)
        out = memory.allocate(4)

        def build(function, block):
            block.append(
                BinaryOp(op="div", dtype=DataType.u32, dst=reg("a"),
                         a=const(7), b=const(0))
            )
            block.append(
                Store(dtype=DataType.u32, space=AddressSpace.global_,
                      base=const(out, DataType.u64), value=reg("a"))
            )

        self._run(build, memory=memory)
        assert memory.load(DataType.u32, out) == 0

    def test_mulhi(self):
        memory = MemorySystem(1 << 16)
        out = memory.allocate(4)

        def build(function, block):
            block.append(
                BinaryOp(op="mulhi", dtype=DataType.u32, dst=reg("a"),
                         a=const(0x80000000), b=const(4))
            )
            block.append(
                Store(dtype=DataType.u32, space=AddressSpace.global_,
                      base=const(out, DataType.u64), value=reg("a"))
            )

        self._run(build, memory=memory)
        assert memory.load(DataType.u32, out) == 2

    def test_shift_clamps_count(self):
        # PTX shift semantics: amounts >= the operand width clamp (the
        # result drains to 0 / the sign fill), they do not wrap mod N.
        memory = MemorySystem(1 << 16)
        out = memory.allocate(4)

        def build(function, block):
            block.append(
                BinaryOp(op="shl", dtype=DataType.u32, dst=reg("a"),
                         a=const(1), b=const(33))
            )
            block.append(
                Store(dtype=DataType.u32, space=AddressSpace.global_,
                      base=const(out, DataType.u64), value=reg("a"))
            )

        self._run(build, memory=memory)
        assert memory.load(DataType.u32, out) == 0

    def test_convert_rounding_modes(self):
        memory = MemorySystem(1 << 16)
        out = memory.allocate(16)
        modes = [("rzi", 1), ("rni", 2), ("rmi", 1), ("rpi", 2)]

        def build(function, block):
            for index, (mode, _) in enumerate(modes):
                target = reg(f"i{index}", DataType.s32)
                block.append(
                    Convert(dst_type=DataType.s32,
                            src_type=DataType.f32,
                            dst=target,
                            src=const(1.5, DataType.f32),
                            rounding=mode)
                )
                block.append(
                    Store(dtype=DataType.s32,
                          space=AddressSpace.global_,
                          base=const(out + 4 * index, DataType.u64),
                          value=target)
                )

        self._run(build, memory=memory)
        for index, (_, expected) in enumerate(modes):
            assert memory.load(DataType.s32, out + 4 * index) == expected

    def test_bit_reinterpretation_across_types(self):
        # max.s32 on a u32 register holding a "negative" pattern
        memory = MemorySystem(1 << 16)
        out = memory.allocate(4)

        def build(function, block):
            block.append(
                UnaryOp(op="mov", dtype=DataType.u32, dst=reg("x"),
                        a=const(0xFFFFFFFE))  # -2 as s32
            )
            block.append(
                BinaryOp(op="max", dtype=DataType.s32, dst=reg("y"),
                         a=reg("x"), b=const(0, DataType.s32))
            )
            block.append(
                Store(dtype=DataType.u32, space=AddressSpace.global_,
                      base=const(out, DataType.u64), value=reg("y"))
            )

        self._run(build, memory=memory)
        assert memory.load(DataType.u32, out) == 0

    def test_intrinsics(self):
        memory = MemorySystem(1 << 16)
        out = memory.allocate(8)

        def build(function, block):
            block.append(
                Intrinsic(name="sqrt", dtype=DataType.f32,
                          dst=reg("a", DataType.f32),
                          args=[const(9.0, DataType.f32)])
            )
            block.append(
                Intrinsic(name="ex2", dtype=DataType.f32,
                          dst=reg("b", DataType.f32),
                          args=[const(3.0, DataType.f32)])
            )
            block.append(
                Store(dtype=DataType.f32, space=AddressSpace.global_,
                      base=const(out, DataType.u64), value=reg("a"))
            )
            block.append(
                Store(dtype=DataType.f32, space=AddressSpace.global_,
                      base=const(out + 4, DataType.u64),
                      value=reg("b"))
            )

        self._run(build, memory=memory)
        assert memory.load(DataType.f32, out) == 3.0
        assert memory.load(DataType.f32, out + 4) == 8.0

    def test_per_lane_local_addressing(self):
        memory = MemorySystem(1 << 16)
        local0 = memory.allocate(16)
        local1 = memory.allocate(16)
        contexts = [
            make_context(0, local_base=local0),
            make_context(1, local_base=local1),
        ]

        def build(function, block):
            for lane in range(2):
                block.append(
                    Store(dtype=DataType.u32,
                          space=AddressSpace.local,
                          base=const(0, DataType.u64),
                          value=const(100 + lane), lane=lane)
                )

        self._run(build, width=2, contexts=contexts, memory=memory)
        assert memory.load(DataType.u32, local0) == 100
        assert memory.load(DataType.u32, local1) == 101

    def test_warp_size_mismatch_rejected(self):
        machine = sandybridge()
        memory = MemorySystem(1 << 12)
        interpreter = Interpreter(machine, memory)
        function = IRFunction("t", warp_size=4)
        function.add_block("entry").append(Yield(status=3))
        executable = interpreter.load_function(function)
        warp = Warp(contexts=[make_context(0)])
        with pytest.raises(ExecutionError):
            interpreter.execute(executable, warp, param_base=0)

    def test_infinite_loop_detected(self):
        machine = sandybridge()
        memory = MemorySystem(1 << 12)
        interpreter = Interpreter(machine, memory, instruction_limit=100)
        function = IRFunction("t", warp_size=1)
        function.add_block("entry").append(Branch("entry"))
        executable = interpreter.load_function(function)
        warp = Warp(contexts=[make_context(0)])
        with pytest.raises(ExecutionError) as excinfo:
            interpreter.execute(executable, warp, param_base=0)
        assert "instruction limit" in str(excinfo.value)

    def test_switch_dispatch(self):
        memory = MemorySystem(1 << 16)
        out = memory.allocate(4)

        def build(function, block):
            block.append(
                UnaryOp(op="mov", dtype=DataType.u32, dst=reg("x"),
                        a=const(2))
            )
            block.append(
                Switch(value=reg("x"), cases={1: "one", 2: "two"},
                       default="other")
            )
            for label, value in (("one", 1), ("two", 2), ("other", 9)):
                target = function.add_block(label)
                target.append(
                    Store(dtype=DataType.u32,
                          space=AddressSpace.global_,
                          base=const(out, DataType.u64),
                          value=const(value))
                )
                target.append(Yield(status=3))

        self._run(build, memory=memory)
        assert memory.load(DataType.u32, out) == 2

    def test_stats_accumulate_cycles_and_flops(self):
        from repro.machine import ExecutionStats

        machine = sandybridge()
        memory = MemorySystem(1 << 12)
        interpreter = Interpreter(machine, memory)
        function = IRFunction("t", warp_size=1)
        block = function.add_block("entry")
        block.append(
            FusedMultiplyAdd(
                dtype=DataType.f32, dst=reg("a", DataType.f32),
                a=const(1.0, DataType.f32),
                b=const(2.0, DataType.f32),
                c=const(3.0, DataType.f32),
            )
        )
        block.append(Yield(status=3))
        executable = interpreter.load_function(function)
        stats = ExecutionStats()
        interpreter.execute(
            executable, Warp(contexts=[make_context(0)]), 0, stats
        )
        assert stats.flops == 2
        assert stats.kernel_cycles > 0
