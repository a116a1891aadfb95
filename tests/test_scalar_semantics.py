"""Regression tests for the PTX scalar-semantics bugfixes that rode
along with the array backend: shift-count clamping (PTX shifts drain,
they do not wrap mod N), saturating float->integer ``cvt`` in every
rounding mode (NaN converts to 0, out-of-range saturates to the
destination bounds), and scoped numpy error state (importing and
running repro must never mutate the host process's ``np.geterr()``).

Every semantics case runs on both the closure lowering and the
dispatch reference interpreter (``repro.testing.reference``) — they
must agree bit-for-bit.
"""

import numpy as np
import pytest

from repro import Device, ExecutionConfig
from repro.ir import BinaryOp, Convert, Exit, IRFunction, Store, Yield
from repro.ir.values import Constant, VirtualRegister
from repro.machine import Interpreter, MemorySystem, sandybridge
from repro.machine.interpreter import guest_errstate
from repro.ptx.types import AddressSpace, DataType
from repro.runtime.context import ThreadContext, Warp
from repro.testing.reference import ReferenceInterpreter

#: The two scalar executors, by the strategy each one is.
EXECUTORS = {"closure": Interpreter, "dispatch": ReferenceInterpreter}
INTERPRETER_MODES = tuple(EXECUTORS)


def reg(name, dtype=DataType.u32, width=1):
    return VirtualRegister(name=name, dtype=dtype, width=width)


def const(value, dtype=DataType.u32):
    return Constant(value, dtype)


def make_context(tid=0):
    return ThreadContext(
        tid=(tid, 0, 0),
        ntid=(32, 1, 1),
        ctaid=(0, 0, 0),
        nctaid=(1, 1, 1),
        shared_base=0,
        local_base=0,
    )


def run_block(build, mode, memory):
    """Build one block with ``build(block)``, execute one scalar warp
    on the executor named ``mode``."""
    machine = sandybridge()
    interpreter = EXECUTORS[mode](machine, memory)
    function = IRFunction("t", warp_size=1)
    block = function.add_block("entry")
    build(block)
    if not block.is_terminated:
        block.append(Yield(status=3))
    executable = interpreter.load_function(function)
    warp = Warp(contexts=[make_context()])
    interpreter.execute(executable, warp, param_base=0)


# ---------------------------------------------------------------------------
# Shift clamping
# ---------------------------------------------------------------------------


class TestShiftClamping:
    """PTX ISA: "SHL: shift amounts greater than the register width N
    are clamped to N" — a numpy shift would wrap mod N instead."""

    def _shift(self, mode, op, dtype, a, b):
        memory = MemorySystem(1 << 16)
        out = memory.allocate(8)

        def build(block):
            block.append(
                BinaryOp(op=op, dtype=dtype, dst=reg("r", dtype),
                         a=const(a, dtype), b=const(b, DataType.u32))
            )
            block.append(
                Store(dtype=dtype, space=AddressSpace.global_,
                      base=const(out, DataType.u64), value=reg("r", dtype))
            )

        run_block(build, mode, memory)
        return memory.load(dtype, out)

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    @pytest.mark.parametrize("count", [31, 32, 33, 255])
    def test_shl_u32_drains_to_zero(self, mode, count):
        expected = (1 << count) & 0xFFFFFFFF if count < 32 else 0
        assert self._shift(
            mode, "shl", DataType.u32, 1, count
        ) == expected

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    @pytest.mark.parametrize("count", [31, 32, 33, 255])
    def test_shr_u32_drains_to_zero(self, mode, count):
        expected = 0xFFFFFFFF >> count if count < 32 else 0
        assert self._shift(
            mode, "lshr", DataType.u32, 0xFFFFFFFF, count
        ) == expected

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    @pytest.mark.parametrize("count", [31, 32, 33, 255])
    def test_shr_s32_drains_to_sign_fill(self, mode, count):
        # arithmetic shift of a negative value clamps to all-ones
        assert self._shift(
            mode, "ashr", DataType.s32, -16, count
        ) == -1

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    @pytest.mark.parametrize("count", [63, 64, 65, 255])
    def test_shl_u64_drains_to_zero(self, mode, count):
        expected = (1 << count) & (2**64 - 1) if count < 64 else 0
        assert self._shift(
            mode, "shl", DataType.u64, 1, count
        ) == expected

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    def test_in_range_shifts_unchanged(self, mode):
        assert self._shift(mode, "shl", DataType.u32, 3, 4) == 48
        assert self._shift(mode, "lshr", DataType.u32, 48, 4) == 3
        assert self._shift(mode, "ashr", DataType.s32, -48, 4) == -3


# ---------------------------------------------------------------------------
# Saturating float -> integer cvt
# ---------------------------------------------------------------------------


ROUNDING_MODES = ("rni", "rzi", "rmi", "rpi")


class TestSaturatingConvert:
    """PTX float->integer ``cvt``: round, then saturate to the
    destination range; NaN converts to 0 (the sm_20+ semantics). A
    plain numpy ``astype`` wraps modulo 2**N and is undefined for NaN.
    """

    def _cvt(self, mode, rounding, dst_type, src_type, value):
        memory = MemorySystem(1 << 16)
        out = memory.allocate(8)

        def build(block):
            target = reg("i", dst_type)
            block.append(
                Convert(dst_type=dst_type, src_type=src_type,
                        dst=target, src=const(value, src_type),
                        rounding=rounding)
            )
            block.append(
                Store(dtype=dst_type, space=AddressSpace.global_,
                      base=const(out, DataType.u64), value=target)
            )

        run_block(build, mode, memory)
        return memory.load(dst_type, out)

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    @pytest.mark.parametrize("rounding", ROUNDING_MODES)
    def test_nan_converts_to_zero(self, mode, rounding):
        assert self._cvt(
            mode, rounding, DataType.s32, DataType.f32, float("nan")
        ) == 0

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    @pytest.mark.parametrize("rounding", ROUNDING_MODES)
    def test_overflow_saturates_high(self, mode, rounding):
        assert self._cvt(
            mode, rounding, DataType.s32, DataType.f32, 1e30
        ) == 2**31 - 1
        assert self._cvt(
            mode, rounding, DataType.s32, DataType.f32, float("inf")
        ) == 2**31 - 1

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    @pytest.mark.parametrize("rounding", ROUNDING_MODES)
    def test_overflow_saturates_low(self, mode, rounding):
        assert self._cvt(
            mode, rounding, DataType.s32, DataType.f32, -1e30
        ) == -(2**31)
        assert self._cvt(
            mode, rounding, DataType.s32, DataType.f32, float("-inf")
        ) == -(2**31)

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    @pytest.mark.parametrize("rounding", ROUNDING_MODES)
    def test_unsigned_negative_saturates_to_zero(self, mode, rounding):
        assert self._cvt(
            mode, rounding, DataType.u32, DataType.f32, -7.5
        ) == 0

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    def test_rounding_direction(self, mode):
        # -1.5: rni ties-to-even -> -2, rzi -> -1, rmi -> -2, rpi -> -1
        cases = {"rni": -2, "rzi": -1, "rmi": -2, "rpi": -1}
        for rounding, expected in cases.items():
            assert self._cvt(
                mode, rounding, DataType.s32, DataType.f32, -1.5
            ) == expected
        # 2.5 ties-to-even rounds down to 2
        assert self._cvt(
            mode, "rni", DataType.s32, DataType.f32, 2.5
        ) == 2

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    def test_s64_bounds_saturate(self, mode):
        # float64(2**63 - 1) rounds up to 2**63: the cutoff must still
        # saturate instead of overflowing the cast
        assert self._cvt(
            mode, "rzi", DataType.s64, DataType.f64, 1e300
        ) == 2**63 - 1
        assert self._cvt(
            mode, "rzi", DataType.s64, DataType.f64, -1e300
        ) == -(2**63)

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    def test_in_range_values_exact(self, mode):
        assert self._cvt(
            mode, "rzi", DataType.s32, DataType.f32, 123.75
        ) == 123
        assert self._cvt(
            mode, "rzi", DataType.u64, DataType.f64, 2.0**40
        ) == 2**40

    @pytest.mark.parametrize("backend", ["interpreter", "reference"])
    @pytest.mark.parametrize(
        "modifiers, expected",
        [("rni.sat", 3), ("rni.ftz.sat", 3), ("sat", 2), ("rpi.ftz", 3)],
    )
    def test_sat_and_ftz_keep_the_rounding_modifier(
        self, backend, modifiers, expected
    ):
        # .sat and .ftz once took the rounding slot (the last modifier
        # won), so cvt.rni.sat.s32.f32 of 2.7 rounded toward zero
        device = Device(config=ExecutionConfig(backend=backend))
        device.register_module(CVT_PTX.replace("MODIFIERS", modifiers))
        out = device.malloc(4)
        device.launch("cvt", grid=1, block=1, args=[out, np.float32(2.7)])
        assert out.read(np.int32, 1)[0] == expected


CVT_PTX = r"""
.version 2.3
.target sim
.entry cvt (.param .u64 out, .param .f32 x)
{
  .reg .u64 %rd<2>;
  .reg .f32 %f<2>;
  .reg .s32 %r<2>;
  ld.param.u64 %rd1, [out];
  ld.param.f32 %f1, [x];
  cvt.MODIFIERS.s32.f32 %r1, %f1;
  st.global.s32 [%rd1], %r1;
  exit;
}
"""


# ---------------------------------------------------------------------------
# Scoped numpy error state
# ---------------------------------------------------------------------------


class TestGuestErrstate:
    def test_guest_errstate_scopes_and_restores(self):
        before = np.geterr()
        with guest_errstate():
            state = np.geterr()
            assert state["over"] == "ignore"
            assert state["invalid"] == "ignore"
            assert state["divide"] == "ignore"
        assert np.geterr() == before

    @pytest.mark.parametrize("mode", INTERPRETER_MODES)
    def test_execution_leaves_host_errstate_alone(self, mode):
        before = np.geterr()
        memory = MemorySystem(1 << 16)
        out = memory.allocate(4)

        def build(block):
            # division by zero + overflow: would warn/raise outside the
            # guest scope under strict host settings
            block.append(
                BinaryOp(op="div", dtype=DataType.u32, dst=reg("a"),
                         a=const(7), b=const(0))
            )
            block.append(
                BinaryOp(op="add", dtype=DataType.u32, dst=reg("b"),
                         a=const(0xFFFFFFFF), b=const(2))
            )
            block.append(
                Store(dtype=DataType.u32, space=AddressSpace.global_,
                      base=const(out, DataType.u64), value=reg("b"))
            )

        run_block(build, mode, memory)
        assert np.geterr() == before
        assert memory.load(DataType.u32, out) == 1


# ---------------------------------------------------------------------------
# 64-bit mul.hi over vectors
# ---------------------------------------------------------------------------


class TestMulHi64:
    """``mul.hi`` on a vector whose lanes' high words fall on both
    sides of 2**63 (left to infer a dtype, numpy promoted such a lane
    mix to float64 and the cast back destroyed every lane)."""

    @pytest.mark.parametrize("dtype", [DataType.u64, DataType.s64])
    def test_mixed_magnitude_lanes_are_exact(self, dtype):
        from repro.machine.interpreter import _BINARY_IMPL

        numpy_dtype = dtype.numpy_dtype
        a = np.array(
            [2**64 - 3, 5, 2**63 + 11, 2**40], dtype=np.uint64
        ).view(numpy_dtype)
        b = np.array(
            [2**64 - 7, 9, 2**62 + 1, 2**41], dtype=np.uint64
        ).view(numpy_dtype)
        with guest_errstate():
            result = _BINARY_IMPL["mulhi"](a, b, dtype)
        expected = [
            ((int(x) * int(y)) >> 64) & (2**64 - 1)
            for x, y in zip(a.tolist(), b.tolist())
        ]
        assert result.dtype == numpy_dtype
        assert result.view(np.uint64).tolist() == expected
