"""Closure-specialized lowering and runtime correctness regressions.

The closure lowering must be a pure host-side optimization: every
*modeled* statistic has to stay bit-identical to the dispatch
reference interpreter (``backend="reference"``). These tests pin that
A/B equivalence on divergent, barrier-heavy and %clock-reading
workloads, the shape of the lowering itself (one ALU tier: closures,
plus one generated function per fused run), and the satellite fixes
that rode along (static warp formation, arena free validation,
spill-layout caching, ready-pool fairness, warp-size specialization
selection).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import Device, ExecutionConfig, vectorized_config
from repro.errors import MemoryFault
from repro.ir import BinaryOp, Compare, IRFunction, Load, UnaryOp, Yield
from repro.ir.instructions import FusedMultiplyAdd
from repro.ir.values import Constant, VirtualRegister
from repro.machine import Interpreter, sandybridge
from repro.machine import interpreter as lowering
from repro.machine.memory import MemorySystem
from repro.ptx.types import AddressSpace, DataType
from repro.runtime import ThreadContext
from repro.runtime.context import Warp
from repro.runtime.config import static_tie_config
from repro.runtime.execution_manager import ExecutionManager, _ReadyPool
from repro.workloads.registry import get_workload
from tests.conftest import VECADD_PTX


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
        assert observed["interpreter"] == observed["reference"]

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
# The shape of the lowering: one ALU tier, code generated per fused run
# ---------------------------------------------------------------------------


def _reg(name, dtype=DataType.f32):
    return VirtualRegister(name=name, dtype=dtype)


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


def _div(dst, a):  # an ALU op run fusion does not absorb
    return BinaryOp(
        op="div", dtype=DataType.f32, dst=_reg(dst), a=_reg(a),
        b=Constant(2.0, DataType.f32),
    )


class TestOneTierLowering:
    def _lower(self, monkeypatch, instructions, memory=None):
        """Lower one block; returns (interpreter, executable, compiled
        block, number of ``compile()`` calls load_function made)."""
        compiles = []
        monkeypatch.setattr(
            lowering,
            "compile",
            lambda *args: compiles.append(args[1]) or compile(*args),
            raising=False,
        )
        interpreter = Interpreter(
            sandybridge(), memory or MemorySystem(1 << 16)
        )
        function = IRFunction("t", warp_size=1)
        block = function.add_block("entry")
        for instruction in instructions:
            block.append(instruction)
        block.append(Yield(status=3))
        executable = interpreter.load_function(function)
        return (
            interpreter,
            executable,
            executable.compiled_blocks["entry"],
            len(compiles),
        )

    def test_isolated_alu_ops_generate_no_code(self, monkeypatch):
        # Every ALU family, none adjacent to a second fusable op: each
        # lowers to a plain closure and load time compiles nothing.
        _, _, compiled, compiles = self._lower(
            monkeypatch,
            [
                _fma("a", "x"),
                _div("b", "a"),
                _add("c", "b"),
                Compare(
                    op="lt", dtype=DataType.f32,
                    dst=_reg("p", DataType.pred), a=_reg("c"),
                    b=_reg("a"),
                ),
                UnaryOp(
                    op="neg", dtype=DataType.f32, dst=_reg("d"),
                    a=_reg("c"),
                ),
            ],
        )
        ops, op_indices = compiled[0], compiled[7]
        assert compiles == 0
        assert op_indices == (0, 1, 2, 3, 4)
        assert {op.__code__.co_filename for op in ops} == {
            lowering.__file__
        }

    def test_fusable_run_generates_exactly_one_function(
        self, monkeypatch
    ):
        _, _, compiled, compiles = self._lower(
            monkeypatch,
            [_fma("a", "x"), _add("b", "a"), _fma("c", "b"),
             _div("d", "c")],
        )
        ops, op_indices = compiled[0], compiled[7]
        assert compiles == 1
        assert op_indices == (0, 3)
        assert [op.__code__.co_filename for op in ops] == [
            "<fused-run>", lowering.__file__,
        ]

    def test_throughput_fma_block_is_a_single_fused_op(self):
        # Table 1's inner loop: 160 FMAs + the trip-count add fuse
        # into one generated function; the compare and the context
        # write stay closures.
        workload = get_workload("throughput")
        device = Device(config=vectorized_config(4))
        device.register_module(workload.module_source())
        executable, width = device.cache.get_or_degrade("throughput", 4)
        assert width == 4
        loop = executable.function.blocks["LOOP"]
        fmas = sum(
            isinstance(instruction, FusedMultiplyAdd)
            for instruction in loop.instructions
        )
        assert fmas == 160
        ops, op_indices = (
            executable.compiled_blocks["LOOP"][0],
            executable.compiled_blocks["LOOP"][7],
        )
        assert op_indices == (0, 161, 162)
        assert [op.__code__.co_filename for op in ops] == [
            "<fused-run>", lowering.__file__, lowering.__file__,
        ]

    def test_fault_after_fused_run_keeps_its_pc(self, monkeypatch):
        # Instructions 0-2 fuse into op 0; the faulting load is op 1
        # but must still report block instruction index 3.
        memory = MemorySystem(1 << 12)
        interpreter, executable, compiled, _ = self._lower(
            monkeypatch,
            [
                _fma("a", "x"),
                _add("b", "a"),
                _fma("c", "b"),
                Load(
                    dtype=DataType.f32, space=AddressSpace.global_,
                    dst=_reg("v"),
                    base=Constant(1 << 20, DataType.u64),
                ),
            ],
            memory=memory,
        )
        assert compiled[7] == (0, 3)
        warp = Warp(contexts=[_context(0)])
        with pytest.raises(MemoryFault) as excinfo:
            interpreter.execute(executable, warp, param_base=0)
        assert excinfo.value.trap_label == "entry"
        assert excinfo.value.trap_index == 3


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
            ready.push(_context(x))
        members = manager._form_static(ready, limit=4)
        assert [m.tid[0] for m in members] == [0, 1, 2, 3]
        assert ready.size == 0

    def test_run_starts_at_lowest_present_thread(self):
        # Window [4, 8) with threads {5, 6, 7}: the run is [5, 6, 7]
        # even though the window base 4 is absent.
        manager = self._manager()
        ready = _ReadyPool()
        for x in (6, 7, 5):
            ready.push(_context(x))
        members = manager._form_static(ready, limit=4)
        # warp_sizes (1, 2, 4): a 3-thread run executes as width 2.
        assert [m.tid[0] for m in members] == [5, 6]
        assert ready.size == 1

    def test_gap_splits_the_run(self):
        manager = self._manager()
        ready = _ReadyPool()
        for x in (0, 1, 3):
            ready.push(_context(x))
        members = manager._form_static(ready, limit=4)
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
    def test_computed_once_and_dropped_on_invalidate(self, monkeypatch):
        from repro.runtime import translation_cache as module

        device = Device()
        device.register_module(VECADD_PTX)
        calls = []
        original = module.assign_spill_slots
        monkeypatch.setattr(
            module,
            "assign_spill_slots",
            lambda ir: calls.append(ir) or original(ir),
        )
        first = device.cache.spill_layout("vecAdd")
        second = device.cache.spill_layout("vecAdd")
        assert first == second
        assert len(calls) == 1
        device.cache.invalidate("vecAdd")
        third = device.cache.spill_layout("vecAdd")
        assert third == first
        assert len(calls) == 2

    def test_layout_shape(self):
        device = Device()
        device.register_module(VECADD_PTX)
        slots, total = device.cache.spill_layout("vecAdd")
        assert isinstance(slots, dict)
        assert isinstance(total, int)
        assert total >= 0


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
                pool.push(context)
        seen = []
        while pool:
            group = pool.pop_group(2)
            seen.append(group[0].resume_point)
        # Three keys, two threads per pop: strict rotation.
        assert seen == [0, 5, 9, 0, 5, 9]

    def test_pushed_back_extras_do_not_starve_other_keys(self):
        pool = _ReadyPool(cross_cta=True)
        for x in range(8):
            context = _context(x)
            context.resume_point = 0
            pool.push(context)
        straggler = _context(0)
        straggler.resume_point = 7
        pool.push(straggler)
        first = pool.pop_group(4)
        assert {c.resume_point for c in first} == {0}
        for extra in first[2:]:  # the warp former returns leftovers
            pool.push(extra)
        second = pool.pop_group(4)
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
