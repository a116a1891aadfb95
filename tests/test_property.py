"""Property-based tests (hypothesis).

The central invariant of the paper's transformation — "execution of a
single vectorized kernel is computationally equivalent to the serial
execution of a scalar version of the kernel over a collection of
threads" (§4) — is checked here on randomly generated kernels: the
scalar baseline's output is the reference, and every vectorized
configuration must reproduce it bit-for-bit.
"""

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import (
    Device,
    baseline_config,
    static_tie_config,
    vectorized_config,
)
from repro.machine import MemorySystem
from repro.ptx.types import DataType
from tests.conftest import COLLATZ_PTX, collatz_steps, sequential_only
from tests.test_interpreter_lowering import _modeled_statistics

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- random straight-line kernel generation -------------------------------

_INT_OPS = ("add", "sub", "mul.lo", "min", "max", "and", "or", "xor",
            "shl")
_FLOAT_OPS = ("add", "sub", "mul", "min", "max")

int_op = st.tuples(
    st.sampled_from(_INT_OPS),
    st.integers(0, 3),  # dst
    st.integers(0, 3),  # src a
    st.one_of(st.integers(0, 3), st.integers(1, 1000)),  # src b or imm
)
float_op = st.tuples(
    st.sampled_from(_FLOAT_OPS),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
)


def render_kernel(int_ops, float_ops, shift_counts=(), cvt_mode=None):
    """A kernel seeding 4 int + 4 float registers from per-thread data,
    applying the random op sequence, and storing a mixed result.

    ``shift_counts`` appends shifts with the given immediate counts
    (including out-of-range ones, exercising PTX clamp semantics);
    ``cvt_mode`` appends saturating float->int converts in that
    rounding mode, driven through overflow (and NaN via inf - inf)."""
    lines = [
        ".version 2.3",
        ".target sim",
        ".entry prop (.param .u64 in, .param .u64 out, .param .u32 n)",
        "{",
        "  .reg .u32 %r<12>;",
        "  .reg .u64 %rd<6>;",
        "  .reg .f32 %f<8>;",
        "  .reg .pred %p<2>;",
        "  mov.u32 %r8, %tid.x;",
        "  mov.u32 %r9, %ntid.x;",
        "  mov.u32 %r10, %ctaid.x;",
        "  mad.lo.u32 %r11, %r10, %r9, %r8;",
        "  ld.param.u32 %r7, [n];",
        "  setp.ge.u32 %p1, %r11, %r7;",
        "  @%p1 bra DONE;",
        "  mul.wide.u32 %rd1, %r11, 4;",
        "  ld.param.u64 %rd2, [in];",
        "  add.u64 %rd3, %rd2, %rd1;",
        "  ld.global.u32 %r0, [%rd3];",
        # derive the other registers deterministically
        "  xor.b32 %r1, %r0, 0x5bd1e995;",
        "  add.u32 %r2, %r0, %r11;",
        "  shr.u32 %r3, %r0, 3;",
        "  cvt.rn.f32.u32 %f0, %r0;",
        "  cvt.rn.f32.u32 %f1, %r1;",
        "  cvt.rn.f32.u32 %f2, %r2;",
        "  cvt.rn.f32.u32 %f3, %r3;",
        "  mul.f32 %f0, %f0, 0.000001;",
        "  mul.f32 %f1, %f1, 0.000001;",
        "  mul.f32 %f2, %f2, 0.000001;",
        "  mul.f32 %f3, %f3, 0.000001;",
    ]
    for op, dst, a, b in int_ops:
        if isinstance(b, int) and b > 3:
            operand = str(b)
        else:
            operand = f"%r{b}"
        suffix = "b32" if op in ("and", "or", "xor", "shl") else "u32"
        lines.append(f"  {op}.{suffix} %r{dst}, %r{a}, {operand};")
    for op, dst, a, b in float_ops:
        lines.append(f"  {op}.f32 %f{dst}, %f{a}, %f{b};")
    shift_variants = ("shl.b32", "shr.u32", "shr.s32")
    for index, count in enumerate(shift_counts):
        op = shift_variants[index % len(shift_variants)]
        target = index % 4
        lines.append(f"  {op} %r{target}, %r{target}, {count};")
    lines += [
        # combine everything into one u32 result
        "  xor.b32 %r4, %r0, %r1;",
        "  xor.b32 %r4, %r4, %r2;",
        "  xor.b32 %r4, %r4, %r3;",
        "  add.f32 %f4, %f0, %f1;",
        "  add.f32 %f4, %f4, %f2;",
        "  add.f32 %f4, %f4, %f3;",
        "  mul.f32 %f5, %f4, 1024.0;",
        "  cvt.rzi.s32.f32 %r5, %f5;",
        "  xor.b32 %r4, %r4, %r5;",
    ]
    if cvt_mode is not None:
        lines += [
            # drive the convert through overflow: the product
            # saturates (or hits inf), and inf - inf injects NaN
            "  mul.f32 %f6, %f5, 1000000000.0;",
            "  mul.f32 %f6, %f6, %f6;",
            f"  cvt.{cvt_mode}.s32.f32 %r6, %f6;",
            "  xor.b32 %r4, %r4, %r6;",
            "  sub.f32 %f7, %f6, %f6;",
            f"  cvt.{cvt_mode}.s32.f32 %r6, %f7;",
            "  xor.b32 %r4, %r4, %r6;",
        ]
    lines += [
        "  ld.param.u64 %rd4, [out];",
        "  add.u64 %rd5, %rd4, %rd1;",
        "  st.global.u32 [%rd5], %r4;",
        "DONE:",
        "  exit;",
        "}",
    ]
    return "\n".join(lines)


def run_config(source, data, config, block=32, batched=None):
    """``prop`` over ``len(data)`` threads in CTAs of ``block``. On a
    compiled Device, so a CTA of ``MIN_BATCH_WARPS`` full warps is a
    batch from the very first window; with ``batched`` given, whether
    any warp ran in one is checked against it."""
    n = len(data)
    device = Device(config=config)
    device.register_module(source)
    device.warm()
    src = device.upload(data)
    dst = device.malloc(n * 4)
    statistics = device.launch(
        "prop", grid=(n // block, 1, 1), block=(block, 1, 1),
        args=[src, dst, n],
    ).statistics
    if batched is not None:
        assert (statistics.batched_warps > 0) == batched
    return dst.read(np.uint32, n)


def execution_legs(base):
    """The paths one kernel can take through the product, as ``(name,
    config, context)``: the executor as admission decides (batching),
    with every batch refused, and sanitized (checked access; never
    batches). The oracle is ``backend="reference"``."""
    return (
        ("batching", base, nullcontext),
        ("sequential", base, sequential_only),
        ("sanitized", replace(base, sanitize=True), nullcontext),
    )


class TestVectorizationEquivalence:
    @_SETTINGS
    @given(
        int_ops=st.lists(int_op, min_size=1, max_size=12),
        float_ops=st.lists(float_op, min_size=0, max_size=8),
        seed=st.integers(0, 2**31),
    )
    def test_straight_line_kernels_match_baseline(
        self, int_ops, float_ops, seed
    ):
        source = render_kernel(int_ops, float_ops)
        data = np.random.default_rng(seed).integers(
            0, 1 << 32, 64, dtype=np.uint32
        )
        reference = run_config(source, data, baseline_config())
        # CTAs of 8 warps at width 4: batched under dynamic formation,
        # never under static
        for config in (vectorized_config(4), static_tie_config(4)):
            assert np.array_equal(
                run_config(
                    source, data, config,
                    batched=not config.static_warps,
                ),
                reference,
            )

    @_SETTINGS
    @given(
        values=st.lists(
            st.integers(1, 2000), min_size=8, max_size=64
        )
    )
    def test_divergent_loops_match_reference(self, values):
        data = np.array(values, dtype=np.uint32)
        n = len(data)
        expected = np.array(
            [collatz_steps(int(v)) for v in data], dtype=np.uint32
        )
        for config in (
            baseline_config(),
            vectorized_config(4),
            static_tie_config(4),
        ):
            device = Device(config=config)
            device.register_module(COLLATZ_PTX)
            src = device.upload(data)
            dst = device.malloc(n * 4)
            device.launch(
                "collatz", grid=(2, 1, 1), block=(32, 1, 1),
                args=[src, dst, n],
            )
            assert np.array_equal(dst.read(np.uint32, n), expected)


# -- random kernels over the shared semantic tables -------------------------
#
# One op of each family the ``_*_IMPL`` tables serve. Registers: %r0-3
# (u32; %r3 is ``%r0 & 3``, so it is zero in a quarter of the lanes and a
# frequent zero divisor), %rd6-7 (u64), %f0-3 (f32, some negative, some
# zero), %p2. Every op reads and writes that pool only.

_UNARY_INT = ("neg.s32", "abs.s32", "not.b32", "cnot.b32")
_UNARY_FLOAT = ("neg.f32", "abs.f32")
_DIVIDES = ("div.u32", "div.s32", "rem.u32", "rem.s32")
_MULHI_32 = ("mul.hi.u32", "mul.hi.s32")
_MULHI_64 = ("mul.hi.u64", "mul.hi.s64")
_TRANSCENDENTALS = ("rcp", "sqrt", "rsqrt", "sin", "cos", "ex2", "lg2")
_VARIABLE_SHIFTS = ("shl.b32", "shr.u32", "shr.s32")

_register = st.integers(0, 3)
table_op = st.one_of(
    st.tuples(st.sampled_from(_UNARY_INT), _register, _register).map(
        lambda t: f"  {t[0]} %r{t[1]}, %r{t[2]};"
    ),
    st.tuples(st.sampled_from(_UNARY_FLOAT), _register, _register).map(
        lambda t: f"  {t[0]} %f{t[1]}, %f{t[2]};"
    ),
    st.tuples(
        st.sampled_from(_DIVIDES + _MULHI_32 + _VARIABLE_SHIFTS),
        _register, _register, _register,
    ).map(lambda t: f"  {t[0]} %r{t[1]}, %r{t[2]}, %r{t[3]};"),
    # Constant amounts around the clamp (the emitter prints these as
    # one inline shift): >= the width, and "negative" — all ones as an
    # unsigned immediate, a real negative where the type is signed.
    st.tuples(
        st.sampled_from(("shl.b32", "shr.u32")), _register, _register,
        st.sampled_from((0, 1, 31, 32, 33, 2**31, 2**32 - 1)),
    ).map(lambda t: f"  {t[0]} %r{t[1]}, %r{t[2]}, {t[3]};"),
    st.tuples(
        _register, _register,
        st.sampled_from((0, 1, 31, 32, 33, -1, -(2**31))),
    ).map(lambda t: f"  shr.s32 %r{t[0]}, %r{t[1]}, {t[2]};"),
    st.tuples(
        st.sampled_from(_MULHI_64), st.integers(6, 7), st.integers(6, 7)
    ).map(lambda t: f"  {t[0]} %rd{t[1]}, %rd{t[1]}, %rd{t[2]};"),
    st.tuples(_register, _register, _register).map(
        lambda t: f"  div.rn.f32 %f{t[0]}, %f{t[1]}, %f{t[2]};"
    ),
    st.tuples(
        st.sampled_from(_TRANSCENDENTALS), _register, _register
    ).map(lambda t: f"  {t[0]}.approx.f32 %f{t[1]}, %f{t[2]};"),
    st.tuples(_register, _register, _register, _register).map(
        lambda t: (
            f"  setp.lt.u32 %p2, %r{t[2]}, %r{t[3]};\n"
            f"  selp.u32 %r{t[0]}, %r{t[1]}, %r{t[2]}, %p2;\n"
            f"  selp.f32 %f{t[0]}, %f{t[1]}, %f{t[3]}, %p2;"
        )
    ),
)

#: Bytes each thread stores: 4 x u32, 4 x f32, 2 x u64.
_TABLE_RECORD = 48


def render_table_kernel(ops):
    body = "\n".join(ops)
    return f"""
.version 2.3
.target sim
.entry prop (.param .u64 in, .param .u64 out, .param .u32 n)
{{
  .reg .u32 %r<12>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<4>;
  .reg .pred %p<3>;
  mov.u32 %r8, %tid.x;
  mov.u32 %r9, %ntid.x;
  mov.u32 %r10, %ctaid.x;
  mad.lo.u32 %r11, %r10, %r9, %r8;
  ld.param.u32 %r7, [n];
  setp.ge.u32 %p1, %r11, %r7;
  @%p1 bra DONE;
  mul.wide.u32 %rd1, %r11, 4;
  ld.param.u64 %rd2, [in];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.u32 %r0, [%rd3];
  xor.b32 %r1, %r0, 0x5bd1e995;
  add.u32 %r2, %r0, %r11;
  and.b32 %r3, %r0, 3;
  mul.wide.u32 %rd6, %r0, %r1;
  mul.wide.u32 %rd7, %r1, %r2;
  sub.u64 %rd7, %rd7, %rd6;
  cvt.rn.f32.u32 %f0, %r3;
  cvt.rn.f32.s32 %f1, %r1;
  cvt.rn.f32.u32 %f2, %r2;
  cvt.rn.f32.u32 %f3, %r11;
  mul.f32 %f1, %f1, 0.000001;
  mul.f32 %f2, %f2, 0.000001;
{body}
  mul.wide.u32 %rd1, %r11, {_TABLE_RECORD};
  ld.param.u64 %rd4, [out];
  add.u64 %rd5, %rd4, %rd1;
  st.global.u32 [%rd5], %r0;
  st.global.u32 [%rd5+4], %r1;
  st.global.u32 [%rd5+8], %r2;
  st.global.u32 [%rd5+12], %r3;
  st.global.f32 [%rd5+16], %f0;
  st.global.f32 [%rd5+20], %f1;
  st.global.f32 [%rd5+24], %f2;
  st.global.f32 [%rd5+28], %f3;
  st.global.u64 [%rd5+32], %rd6;
  st.global.u64 [%rd5+40], %rd7;
DONE:
  exit;
}}
"""


# Shifts with *both* operands constant: what constant folding computes
# at compile time (scalar destinations only, so the kernels run at
# width 1) against what the machine's shifter does with the same
# operands when folding is off. Amounts sit around the clamp: >= the
# width, 2**31, and "negative" — all ones where the type is unsigned.

_CONSTANT_SHIFTS = {
    "shl.b16": "h", "shl.b32": "r", "shl.b64": "rd", "shr.u32": "r",
    "shr.s32": "r", "shr.u64": "rd", "shr.s64": "rd",
}


@st.composite
def constant_shift(draw):
    op = draw(st.sampled_from(sorted(_CONSTANT_SHIFTS)))
    width = int(op[-2:])
    if op[-3] == "s":
        low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
    else:
        low, high = 0, (1 << width) - 1
    amounts = (0, 1, width - 1, width, width + 1, 2**31, -1, low, high)
    amount = draw(
        st.sampled_from([a for a in amounts if low <= a <= high])
    )
    value = draw(
        st.sampled_from((1, 5, low, high, high >> 1))
        | st.integers(low, high)
    )
    return op, value, amount


def render_constant_shift_kernel(shifts):
    """Each shift's result, widened to 64 bits, in its own slot."""
    lines = []
    for slot, (op, value, amount) in enumerate(shifts):
        register = f"%{_CONSTANT_SHIFTS[op]}5"
        lines.append(f"  {op} {register}, {value}, {amount};")
        if register != "%rd5":
            lines.append(f"  cvt.u64.u{op[-2:]} %rd5, {register};")
        lines.append(f"  st.global.u64 [%rd4+{8 * slot}], %rd5;")
    body = "\n".join(lines)
    return f"""
.version 2.3
.target sim
.entry prop (.param .u64 in, .param .u64 out, .param .u32 n)
{{
  .reg .u16 %h<8>;
  .reg .u32 %r<8>;
  .reg .u64 %rd<8>;
  ld.param.u64 %rd4, [out];
{body}
  exit;
}}
"""


# Everything constant folding and CSE decide at compile time, against
# the machine deciding it at run time. Destinations fold only where
# they are scalar, so a 1-thread launch runs the folded code and an
# 8-thread launch (two 4-wide warps) the operators themselves: which
# of the two a thread gets depends on the warps the manager happens to
# form, and must not show. Operands come from where floating point and
# two's complement stop being algebra: signed zeros, infinities, NaN,
# a denormal, a literal f32 cannot hold (2**24 + 1), the integer
# extremes. ``{d}`` is the op's destination; its kind picks the
# register and the store.

_FOLD_REGISTERS = {"f32": "%f5", "f64": "%fd5", "u32": "%r5", "u64": "%rd5"}
#: 0.0, -0.0, 1, -1, inf, -inf, NaN, the smallest denormal, 0.1.
_F32_BITS = (0x00000000, 0x80000000, 0x3F800000, 0xBF800000, 0x7F800000,
             0xFF800000, 0x7FC00000, 0x00000001, 0x3DCCCCCD)
_F64_BITS = (0x0, 0x8000000000000000, 0x3FF0000000000000,
             0xBFF0000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
             0x7FF8000000000000, 0x1, 0x3FB999999999999A)


def _float_immediates(width):
    bits, letter, edges = (
        (32, "f", _F32_BITS) if width == 32 else (64, "d", _F64_BITS)
    )
    digits = bits // 4
    finite = st.floats(width=width, allow_nan=False).map(
        lambda value: int.from_bytes(
            np.array(value, dtype=f"f{bits // 8}").tobytes(), "little"
        )
    )
    return (st.sampled_from(edges) | finite).map(
        lambda pattern: f"0{letter}{pattern:0{digits}X}"
    ) | st.just("16777217.0")


def _int_immediates(dtype):
    width, signed = int(dtype[1:]), dtype[0] == "s"
    low = -(1 << (width - 1)) if signed else 0
    high = (1 << (width - 1)) - 1 if signed else (1 << width) - 1
    edges = [0, 1, 5, low, high, high >> 1] + ([-1] if signed else [])
    return (st.sampled_from(edges) | st.integers(low, high)).map(str)


def _fold_ops():
    f32, f64 = _float_immediates(32), _float_immediates(64)
    floats = st.sampled_from((("f32", f32), ("f64", f64)))
    ints = st.sampled_from(("s32", "u32", "s64", "u64"))
    compared = st.sampled_from(("f32", "f64", "s32", "u32"))

    def immediates(dtype):
        if dtype[0] == "f":
            return f32 if dtype == "f32" else f64
        return _int_immediates(dtype)

    def kind_of(dtype):
        return dtype if dtype[0] == "f" else f"u{dtype[1:]}"

    @st.composite
    def float_binary(draw):
        dtype, values = draw(floats)
        op = draw(st.sampled_from(
            ("add", "sub", "mul", "min", "max", "div.rn")
        ))
        a, b = draw(values), draw(values)
        return [(f"{op}.{dtype} {{d}}, {a}, {b};", dtype)]

    @st.composite
    def int_binary(draw):
        dtype = draw(ints)
        op = draw(st.sampled_from(
            ("add", "sub", "mul.lo", "mul.hi", "min", "max", "div", "rem")
        ))
        a, b = draw(immediates(dtype)), draw(immediates(dtype))
        return [(f"{op}.{dtype} {{d}}, {a}, {b};", kind_of(dtype))]

    @st.composite
    def bitwise(draw):
        op = draw(st.sampled_from(
            ("and.b32", "or.b32", "xor.b32", "shl.b32", "shr.u32")
        ))
        a, b = draw(immediates("u32")), draw(immediates("u32"))
        return [(f"{op} {{d}}, {a}, {b};", "u32")]

    @st.composite
    def unary(draw):
        op = draw(st.sampled_from((
            "neg.f32", "abs.f32", "neg.f64", "abs.f64", "neg.s32",
            "abs.s32", "not.b32", "cnot.b32",
        )))
        dtype = op[4:] if op[4] != "b" else "u32"
        if op.startswith("cnot"):
            dtype = "u32"
        return [(f"{op} {{d}}, {draw(immediates(dtype))};", kind_of(dtype))]

    @st.composite
    def compare(draw):
        dtype = draw(compared)
        names = ("eq", "ne", "lt", "le", "gt", "ge")
        if dtype[0] == "f":
            names += ("ltu", "leu", "gtu", "geu", "num", "nan")
        op = draw(st.sampled_from(names))
        a, b = draw(immediates(dtype)), draw(immediates(dtype))
        return [(
            f"setp.{op}.{dtype} %p1, {a}, {b};\n"
            "  selp.u32 {d}, 1, 0, %p1;",
            "u32",
        )]

    @st.composite
    def select(draw):
        dtype = draw(st.sampled_from(("f32", "f64", "u32", "s32")))
        a, b = draw(immediates(dtype)), draw(immediates(dtype))
        which = draw(st.integers(0, 1))
        return [(f"selp.{dtype} {{d}}, {a}, {b}, {which};", kind_of(dtype))]

    @st.composite
    def convert(draw):
        # Conversions of a constant as the translator makes them: the
        # widening of mul.wide's operands, and cvt of an immediate (the
        # parser types it as the destination, so only forms where that
        # is the same number).
        form, source, kind = draw(st.sampled_from((
            ("mul.wide.s32", "s32", "u64"),
            ("mul.wide.u32", "u32", "u64"),
            ("cvt.s64.s32", "s32", "u64"),
            ("cvt.u64.u32", "u32", "u64"),
            ("cvt.rn.f64.s32", "s32", "f64"),
            ("cvt.f64.f32", "f32", "f64"),
        )))
        operands = draw(immediates(source))
        if form.startswith("mul"):
            operands += ", " + draw(immediates(source))
        return [(f"{form} {{d}}, {operands};", kind)]

    @st.composite
    def fma(draw):
        dtype, values = draw(floats)
        op = draw(st.sampled_from(("fma.rn", "mad")))
        a, b, c = draw(values), draw(values), draw(values)
        return [(f"{op}.{dtype} {{d}}, {a}, {b}, {c};", dtype)]

    @st.composite
    def intrinsic(draw):
        name = draw(st.sampled_from(
            ("sqrt", "rsqrt", "rcp", "sin", "cos", "ex2", "lg2")
        ))
        return [(f"{name}.approx.f32 {{d}}, {draw(f32)};", "f32")]

    @st.composite
    def half_constant(draw):
        # x op c and c op x, x this thread's datum: the identities.
        dtype, values = draw(floats)
        op = draw(st.sampled_from(("add", "sub", "mul", "div.rn")))
        x = "%f0" if dtype == "f32" else "%fd0"
        operands = [x, draw(values)]
        if draw(st.booleans()):
            operands.reverse()
        return [(f"{op}.{dtype} {{d}}, {operands[0]}, {operands[1]};", dtype)]

    @st.composite
    def half_constant_int(draw):
        op = draw(st.sampled_from(
            ("add.u32", "sub.u32", "mul.lo.u32", "div.u32", "shl.b32",
             "shr.u32", "shr.s32")
        ))
        operands = ["%r0", draw(st.sampled_from(("0", "1")))]
        if op[:3] in ("add", "mul") and draw(st.booleans()):
            operands.reverse()
        return [(f"{op} {{d}}, {operands[0]}, {operands[1]};", "u32")]

    @st.composite
    def zero_sign_pair(draw):
        # Two computations that differ in the sign of a zero constant
        # only: equal keys to a CSE that compares constants with ==.
        dtype = draw(st.sampled_from(("f32", "f64")))
        x = "%f0" if dtype == "f32" else "%fd0"
        plus, minus = (
            ("0f00000000", "0f80000000") if dtype == "f32"
            else ("0d0000000000000000", "0d8000000000000000")
        )
        form = draw(st.sampled_from((
            "mul.{t} {{d}}, {x}, {z};", "div.rn.{t} {{d}}, {x}, {z};",
            "fma.rn.{t} {{d}}, {x}, {z}, {z};", "add.{t} {{d}}, {z}, {x};",
            "max.{t} {{d}}, {z}, {z};",
        )))
        zeros = [plus, minus]
        if draw(st.booleans()):
            zeros.reverse()
        return [(form.format(t=dtype, x=x, z=zero), dtype) for zero in zeros]

    return st.one_of(
        float_binary(), int_binary(), bitwise(), unary(), compare(),
        select(), convert(), fma(), intrinsic(), half_constant(),
        half_constant_int(), zero_sign_pair(),
    )


def render_fold_kernel(ops):
    """Each op's result in its own 8-byte slot of the thread's record."""
    lines = []
    for slot, (text, kind) in enumerate(ops):
        register = _FOLD_REGISTERS[kind]
        lines.append("  " + text.format(d=register))
        lines.append(f"  st.global.{kind} [%rd4+{8 * slot}], {register};")
    body = "\n".join(lines)
    return f"""
.version 2.3
.target sim
.entry prop (.param .u64 in, .param .u64 out, .param .u32 n)
{{
  .reg .u32 %r<10>;
  .reg .u64 %rd<8>;
  .reg .f32 %f<8>;
  .reg .f64 %fd<8>;
  .reg .pred %p<2>;
  mov.u32 %r8, %tid.x;
  mul.wide.u32 %rd1, %r8, 4;
  ld.param.u64 %rd2, [in];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.u32 %r0, [%rd3];
  ld.global.f32 %f0, [%rd3];
  cvt.f64.f32 %fd0, %f0;
  mul.wide.u32 %rd1, %r8, {8 * len(ops)};
  ld.param.u64 %rd4, [out];
  add.u64 %rd4, %rd4, %rd1;
{body}
  exit;
}}
"""


def run_fold_kernel(source, data, config, threads, record):
    """``prop`` over one CTA of ``threads`` threads (on a compiled
    Device: 64 threads are one batch); the output bytes."""
    device = Device(config=config)
    device.register_module(source)
    device.warm()
    src = device.upload(np.resize(data, max(threads, len(data))))
    dst = device.upload(np.zeros(threads * record, dtype=np.uint8))
    device.launch(
        "prop", grid=(1, 1, 1), block=(threads, 1, 1),
        args=[src, dst, len(data)],
    )
    return dst.read(np.uint8, threads * record)


# A user ``.local`` array (``arr``, eight words) read and written inside
# divergent code: at constant offsets — aligned ones the printers
# access unchecked, misaligned ones they check — and at a register
# index, while the yields around them spill and restore. %r1-%r4 are
# words, %h0-%h1 halves, %rd5-%rd6 doubles; %r5-%r7 are temporaries.

_LOCAL_REGISTERS = {
    "u8": ("%h0", "%h1"), "u16": ("%h0", "%h1"),
    "u32": ("%r1", "%r2", "%r3", "%r4"), "u64": ("%rd5", "%rd6"),
}


@st.composite
def local_op(draw):
    kind = draw(st.sampled_from(("ld", "st", "ld.index", "st.index", "alu")))
    word = f"%r{draw(st.integers(1, 4))}"
    if kind == "alu":
        op = draw(st.sampled_from(("add.u32", "xor.b32", "mul.lo.u32")))
        return f"  {op} {word}, {word}, %r{draw(st.integers(0, 4))};"
    if kind.endswith("index"):
        index = f"%r{draw(st.integers(0, 4))}"
        access = (
            f"ld.local.u32 {word}, [%r6];" if kind == "ld.index"
            else f"st.local.u32 [%r6], {word};"
        )
        return (
            f"  and.b32 %r5, {index}, 7;\n  shl.b32 %r5, %r5, 2;\n"
            f"  mov.u32 %r6, arr;\n  add.u32 %r6, %r6, %r5;\n  {access}"
        )
    dtype = draw(st.sampled_from(sorted(_LOCAL_REGISTERS)))
    size = int(dtype[1:]) // 8
    offset = draw(st.integers(0, 32 - size))
    register = draw(st.sampled_from(_LOCAL_REGISTERS[dtype]))
    if kind == "ld":
        return f"  ld.local.{dtype} {register}, [arr+{offset}];"
    return f"  st.local.{dtype} [arr+{offset}], {register};"


def render_local_kernel(head, then, other, loop):
    """``head``; a branch on the datum's low bit to ``then`` or
    ``other``; ``loop`` run ``datum & 3`` times; then every word of
    ``arr`` and every register folded into the thread's output word."""
    body = "\n".join
    fold = "\n".join(
        f"  ld.local.u32 %r5, [arr+{4 * k}];\n  xor.b32 %r4, %r4, %r5;"
        for k in range(8)
    )
    return f"""
.version 2.3
.target sim
.entry prop (.param .u64 in, .param .u64 out, .param .u32 n)
{{
  .reg .u32 %r<8>;
  .reg .u16 %h<2>;
  .reg .u64 %rd<8>;
  .reg .pred %p<2>;
  .local .u32 arr[8];
  mov.u32 %r7, %tid.x;
  mul.wide.u32 %rd1, %r7, 4;
  ld.param.u64 %rd2, [in];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.u32 %r0, [%rd3];
  xor.b32 %r1, %r0, 0x5bd1e995;
  add.u32 %r2, %r0, %r7;
  shr.u32 %r3, %r0, 3;
  mul.lo.u32 %r4, %r0, 40503;
  cvt.u16.u32 %h0, %r1;
  cvt.u16.u32 %h1, %r2;
  cvt.u64.u32 %rd5, %r3;
  mul.wide.u32 %rd6, %r0, %r4;
{body(f"  st.local.u32 [arr+{4 * k}], %r{1 + k % 4};" for k in range(8))}
{body(head)}
  and.b32 %r7, %r0, 1;
  setp.eq.u32 %p1, %r7, 0;
  @%p1 bra OTHER;
{body(then)}
  bra JOIN;
OTHER:
{body(other)}
JOIN:
  and.b32 %r7, %r0, 3;
LOOP:
  setp.eq.u32 %p1, %r7, 0;
  @%p1 bra DONE;
{body(loop)}
  sub.u32 %r7, %r7, 1;
  bra LOOP;
DONE:
{fold}
  xor.b32 %r4, %r4, %r1;
  xor.b32 %r4, %r4, %r2;
  xor.b32 %r4, %r4, %r3;
  cvt.u32.u16 %r5, %h0;
  xor.b32 %r4, %r4, %r5;
  cvt.u32.u16 %r5, %h1;
  xor.b32 %r4, %r4, %r5;
  xor.b64 %rd5, %rd5, %rd6;
  cvt.u32.u64 %r5, %rd5;
  xor.b32 %r4, %r4, %r5;
  ld.param.u64 %rd4, [out];
  add.u64 %rd4, %rd4, %rd1;
  st.global.u32 [%rd4], %r4;
  exit;
}}
"""


def run_local_kernel(source, data, config):
    """``prop`` launched as one CTA of 1, of 8 and of 64 threads, in
    that order, on one compiled Device: per launch the output words
    and the modeled statistics."""
    device = Device(config=config)
    device.register_module(source)
    device.warm()
    src = device.upload(np.resize(data, 64))
    observed = []
    for threads in (1, 8, 64):
        dst = device.malloc(threads * 4)
        result = device.launch(
            "prop", grid=(1, 1, 1), block=(threads, 1, 1),
            args=[src, dst, threads],
        )
        observed.append((
            dst.read(np.uint32, threads).tolist(),
            _modeled_statistics(result.statistics),
        ))
    return observed


# One op of each kind the array backend has no lowering for: atomics
# (every operator, shared and global, colliding addresses), %clock
# reads, and the barriers that order them. %r0 is the thread's datum,
# %r2 a running digest, %r12 this thread's shared slot address, %r13 a
# shared slot four threads collide on, %rd4 a global cell all collide on.

_ATOMIC_OPS = ("add.u32", "min.u32", "max.u32", "exch.b32", "and.b32",
               "or.b32", "xor.b32", "inc.u32", "dec.u32")

_CELLS = (("shared", "[%r12]"), ("shared", "[%r13]"), ("global", "[%rd4]"))


def _atomic(space, operator, operands):
    return (
        f"  atom.{space}.{operator} %r3, {operands};\n"
        "  xor.b32 %r2, %r2, %r3;"
    )


sync_op = st.one_of(
    st.tuples(
        st.sampled_from(_ATOMIC_OPS),
        st.sampled_from(_CELLS),
        st.sampled_from(("%r0", "%r2", "7")),
    ).map(lambda t: _atomic(t[1][0], t[0], f"{t[1][1]}, {t[2]}")),
    st.sampled_from(_CELLS[1:]).map(
        lambda cell: _atomic(cell[0], "cas.b32", f"{cell[1]}, %r2, %r0")
    ),
    st.just("  mov.u32 %r3, %clock;\n  add.u32 %r2, %r2, %r3;"),
    st.just("  bar.sync 0;"),
    st.just(
        "  bar.sync 0;\n  ld.shared.u32 %r3, [%r13];\n"
        "  xor.b32 %r2, %r2, %r3;\n  bar.sync 0;"
    ),
)


def render_sync_kernel(ops):
    body = "\n".join(ops)
    return f"""
.version 2.3
.target sim
.entry prop (.param .u64 in, .param .u64 out, .param .u32 n)
{{
  .reg .u32 %r<16>;
  .reg .u64 %rd<8>;
  .shared .u32 slots[32];
  mov.u32 %r8, %tid.x;
  mov.u32 %r9, %ntid.x;
  mov.u32 %r10, %ctaid.x;
  mad.lo.u32 %r11, %r10, %r9, %r8;
  mul.wide.u32 %rd1, %r11, 4;
  ld.param.u64 %rd2, [in];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.u32 %r0, [%rd3];
  mov.u32 %r2, %r0;
  mov.u32 %r14, slots;
  shl.b32 %r12, %r8, 2;
  add.u32 %r12, %r14, %r12;
  and.b32 %r13, %r8, 28;
  add.u32 %r13, %r14, %r13;
  st.shared.u32 [%r12], %r0;
  ld.param.u64 %rd4, [out];
  bar.sync 0;
{body}
  bar.sync 0;
  ld.shared.u32 %r3, [%r12];
  xor.b32 %r2, %r2, %r3;
  add.u64 %rd5, %rd4, %rd1;
  st.global.u32 [%rd5+4], %r2;
  exit;
}}
"""


def run_with_statistics(source, data, config, out_bytes, block=32):
    """Launch ``prop`` over 64 threads in CTAs of ``block`` on a
    compiled Device; returns the whole output buffer (zero-initialized,
    so untouched bytes compare equal), the modeled statistics and how
    many warps ran batched."""
    device = Device(config=config)
    device.register_module(source)
    device.warm()
    src = device.upload(data)
    dst = device.upload(np.zeros(out_bytes, dtype=np.uint8))
    result = device.launch(
        "prop", grid=(64 // block, 1, 1), block=(block, 1, 1),
        args=[src, dst, len(data)],
    )
    return (
        dst.read(np.uint8, out_bytes),
        _modeled_statistics(result.statistics),
        result.statistics.batched_warps,
    )


class TestBackendDifferential:
    """Differential testing across the execution paths: the dispatch
    reference interpreter, the block emitter (with inline and with
    sanitizer-checked memory access) and the batched array lowering
    must agree bit-for-bit on random kernels — including clamped
    shifts and saturating converts, and every op family the shared
    semantic tables serve. Launches are CTAs of 8 warps at width 4, the
    smallest the executor batches; ``sequential_only`` keeps the
    one-warp-at-a-time leg."""

    @_SETTINGS
    @given(
        int_ops=st.lists(int_op, min_size=1, max_size=10),
        float_ops=st.lists(float_op, min_size=0, max_size=6),
        shift_counts=st.lists(
            st.sampled_from((0, 1, 7, 31, 32, 33, 255)),
            min_size=0,
            max_size=4,
        ),
        cvt_mode=st.sampled_from(("rni", "rzi", "rmi", "rpi")),
        seed=st.integers(0, 2**31),
    )
    def test_backends_agree_on_random_kernels(
        self, int_ops, float_ops, shift_counts, cvt_mode, seed
    ):
        source = render_kernel(
            int_ops, float_ops, shift_counts, cvt_mode
        )
        data = np.random.default_rng(seed).integers(
            0, 1 << 32, 64, dtype=np.uint32
        )
        reference = run_config(source, data, baseline_config())
        closure = vectorized_config(4)
        assert np.array_equal(
            run_config(
                source, data, replace(closure, backend="reference")
            ),
            reference,
        )
        for name, config, leg in execution_legs(closure):
            with leg():
                assert np.array_equal(
                    run_config(
                        source, data, config, batched=name == "batching"
                    ),
                    reference,
                ), name

    @_SETTINGS
    @given(
        ops=st.lists(table_op, min_size=1, max_size=12),
        seed=st.integers(0, 2**31),
    )
    def test_backends_agree_on_table_op_families(self, ops, seed):
        # neg/abs/not/cnot, div/rem by zero, mul.hi 32/64-bit
        # signed/unsigned, selp, the transcendentals, shifts by a
        # register and by a constant (in range, >= the width,
        # negative): guest memory and modeled statistics, all legs.
        source = render_table_kernel(ops)
        data = np.random.default_rng(seed).integers(
            0, 1 << 32, 64, dtype=np.uint32
        )
        base = vectorized_config(4)
        reference = run_with_statistics(
            source, data, replace(base, backend="reference"),
            64 * _TABLE_RECORD,
        )
        # The batched lowering, and the emitter with each of its
        # memory templates (inline and the sanitizer's checked access).
        for name, config, leg in execution_legs(base):
            with leg():
                memory, statistics, batched = run_with_statistics(
                    source, data, config, 64 * _TABLE_RECORD
                )
            assert np.array_equal(memory, reference[0]), name
            assert statistics == reference[1], name
            assert batched == (16 if name == "batching" else 0), name

    @_SETTINGS
    @given(shifts=st.lists(constant_shift(), min_size=1, max_size=8))
    def test_folded_constant_shifts_match_the_machine(self, shifts):
        # Folding used to reduce the amount modulo the width; the
        # machine clamps it. The oracle is the reference interpreter
        # running the unfolded IR.
        source = render_constant_shift_kernel(shifts)
        data = np.zeros(64, dtype=np.uint32)
        scalar = baseline_config()
        reference = run_with_statistics(
            source, data,
            replace(scalar, backend="reference", optimize=False),
            8 * len(shifts),
        )
        # (At width 1 a CTA of 32 threads is 32 warps: batched.)
        for backend, leg in (
            ("interpreter", nullcontext), ("interpreter", sequential_only),
            ("reference", nullcontext),
        ):
            for optimize in (False, True):
                with leg():
                    memory, statistics, batched = run_with_statistics(
                        source, data,
                        replace(scalar, backend=backend, optimize=optimize),
                        8 * len(shifts),
                    )
                assert np.array_equal(memory, reference[0]), (
                    backend, leg, optimize, memory.view(np.uint64),
                )
                assert batched == (
                    64 if (backend, leg) == ("interpreter", nullcontext)
                    else 0
                )
                if not optimize:
                    assert statistics == reference[1], (backend, leg)

    @_SETTINGS
    @given(
        ops=st.lists(_fold_ops(), min_size=1, max_size=8),
        data=st.lists(
            st.sampled_from(_F32_BITS) | st.integers(0, 2**32 - 1),
            min_size=8, max_size=8,
        ),
    )
    # The reproductions this was written from: x + 0.0 and x - (-0.0)
    # with x = -0.0; an fma whose product needs more than f32; ex2 of
    # a constant (double vs f32 arithmetic); +0.0 / -0.0 under CSE;
    # min(0.0, -0.0) and min(-0.0, 0.0), which the machine tells apart.
    @example(
        ops=[[("add.f32 {d}, %f0, 0f00000000;", "f32")],
             [("sub.f32 {d}, %f0, 0f80000000;", "f32")]],
        data=[0x80000000] * 8,
    )
    @example(
        ops=[[("fma.rn.f32 {d}, 0f3F800800, 0f3F800800, 0fBF801000;",
               "f32")]],
        data=[0] * 8,
    )
    @example(
        ops=[[("ex2.approx.f32 {d}, 0f41159F3B;", "f32")]], data=[0] * 8
    )
    @example(
        ops=[[("mul.f32 {d}, %f0, 0f00000000;", "f32"),
              ("mul.f32 {d}, %f0, 0f80000000;", "f32")]],
        data=[0x3F800000] * 8,
    )
    @example(
        ops=[[("min.f32 {d}, %f0, 0f80000000;", "f32"),
              ("min.f32 {d}, 0f80000000, %f0;", "f32")]],
        data=[0] * 8,
    )
    # ... and x + y beside y + x with x and y NaNs (which payload wins
    # is the operand order's: here y = -x, so the sign bit tells), for
    # add and mul; and two NaN constants that differ in their payloads
    # only.
    @example(
        ops=[[("neg.f32 %f2, %f0;\n  add.f32 {d}, %f0, %f2;", "f32"),
              ("add.f32 {d}, %f2, %f0;", "f32")],
             [("mul.f32 {d}, %f0, %f2;", "f32"),
              ("mul.f32 {d}, %f2, %f0;", "f32")]],
        data=[0x7FC00001] * 8,
    )
    @example(
        ops=[[("add.f32 {d}, %f0, 0f7FC00002;", "f32"),
              ("add.f32 {d}, %f0, 0f7FC00003;", "f32")]],
        data=[0x3F800000] * 8,
    )
    def test_optimizer_computes_what_the_machine_computes(self, ops, data):
        # The oracle is the reference interpreter running the IR as
        # vectorized, at the same launch width.
        ops = [op for group in ops for op in group]
        source = render_fold_kernel(ops)
        data = np.array(data, dtype=np.uint32)
        base = vectorized_config(4)
        record = 8 * len(ops)
        # 1 thread: scalar destinations fold; 8: two warps; 64: one
        # batch (the only width where the sequential leg is a second
        # path).
        for threads in (1, 8, 64):
            expected = run_fold_kernel(
                source, data,
                replace(base, backend="reference", optimize=False),
                threads, record,
            )
            legs = [("interpreter", nullcontext), ("reference", nullcontext)]
            if threads == 64:
                legs.append(("interpreter", sequential_only))
            for backend, leg in legs:
                for optimize in (False, True):
                    with leg():
                        memory = run_fold_kernel(
                            source, data,
                            replace(base, backend=backend, optimize=optimize),
                            threads, record,
                        )
                    assert np.array_equal(memory, expected), (
                        threads, backend, leg, optimize,
                        memory.view(np.uint64), expected.view(np.uint64),
                    )

    @_SETTINGS
    @given(
        ops=st.lists(sync_op, min_size=1, max_size=8),
        seed=st.integers(0, 2**31),
    )
    def test_interpreter_matches_reference_on_atomics_and_clock(
        self, ops, seed
    ):
        # atom.* / %clock kernels have no batched lowering, so the
        # reference is their only oracle: memory (atomic results,
        # clock readings folded into the digest) and statistics.
        source = render_sync_kernel(ops)
        data = np.random.default_rng(seed).integers(
            0, 1 << 32, 64, dtype=np.uint32
        )
        base = vectorized_config(4)
        out_bytes = 64 * 4 + 4
        reference = run_with_statistics(
            source, data, replace(base, backend="reference"), out_bytes
        )
        for sanitize in (False, True):
            memory, statistics, _ = run_with_statistics(
                source, data, replace(base, sanitize=sanitize), out_bytes
            )
            assert np.array_equal(memory, reference[0]), sanitize
            assert statistics == reference[1], sanitize

    @_SETTINGS
    @given(
        head=st.lists(local_op(), max_size=4),
        then=st.lists(local_op(), min_size=1, max_size=6),
        other=st.lists(local_op(), min_size=1, max_size=6),
        loop=st.lists(local_op(), max_size=4),
        data=st.lists(st.integers(0, 2**32 - 1), min_size=8, max_size=8),
    )
    def test_local_arrays_agree_between_spills(
        self, head, then, other, loop, data
    ):
        # What the inline and batch templates discharge rests on the
        # frame: user .local accesses among the spills and restores of
        # divergent code, at 1, 8 and 64 threads (8: one warp at a time
        # on the inline template; 64: one batch). The default and the
        # sanitized executor store the reference's words and model its
        # statistics; unoptimized IR stores the same words.
        source = render_local_kernel(head, then, other, loop)
        data = np.array(data, dtype=np.uint32)
        base = vectorized_config(4)
        expected = run_local_kernel(
            source, data, replace(base, backend="reference")
        )
        for config in (base, replace(base, sanitize=True)):
            assert run_local_kernel(source, data, config) == expected
        unoptimized = run_local_kernel(
            source, data, replace(base, optimize=False)
        )
        assert [words for words, _ in unoptimized] == [
            words for words, _ in expected
        ]


class TestMemoryProperties:
    @_SETTINGS
    @given(
        operations=st.lists(
            st.tuples(
                st.integers(0, 1000),  # offset
                st.sampled_from(
                    [DataType.u8, DataType.u16, DataType.u32,
                     DataType.u64, DataType.f32]
                ),
                st.integers(0, 255),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_last_store_wins(self, operations):
        memory = MemorySystem(1 << 14)
        base = memory.allocate(2048)
        shadow = {}
        for offset, dtype, value in operations:
            address = base + offset
            memory.store(dtype, address, value)
            for byte in range(dtype.size):
                shadow.pop(address + byte, None)
            shadow[(address, dtype.value)] = value
            # bytes overlapping older stores invalidate them
            stale = [
                key
                for key in shadow
                if key != (address, dtype.value)
                and _overlaps(key, address, dtype)
            ]
            for key in stale:
                del shadow[key]
        for (address, type_name), value in shadow.items():
            dtype = DataType(type_name)
            assert memory.load(dtype, address) == dtype.numpy_dtype.type(
                value
            )

    @_SETTINGS
    @given(
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=20)
    )
    def test_allocations_never_overlap(self, sizes):
        memory = MemorySystem(1 << 16)
        regions = []
        for size in sizes:
            base = memory.allocate(size)
            for other_base, other_size in regions:
                assert (
                    base + size <= other_base
                    or other_base + other_size <= base
                )
            regions.append((base, size))


def _overlaps(key, address, dtype):
    other_address, other_type = key
    other_size = DataType(other_type).size
    return not (
        address + dtype.size <= other_address
        or other_address + other_size <= address
    )


class TestPassSemanticPreservation:
    @_SETTINGS
    @given(
        int_ops=st.lists(int_op, min_size=1, max_size=10),
        seed=st.integers(0, 2**31),
    )
    def test_optimized_pipeline_preserves_results(self, int_ops, seed):
        from repro import ExecutionConfig

        source = render_kernel(int_ops, [])
        data = np.random.default_rng(seed).integers(
            0, 1 << 32, 32, dtype=np.uint32
        )
        plain = run_config(
            source,
            data,
            ExecutionConfig(warp_sizes=(1, 2, 4), optimize=False),
        )
        optimized = run_config(
            source,
            data,
            ExecutionConfig(warp_sizes=(1, 2, 4), optimize=True),
        )
        assert np.array_equal(plain, optimized)


class TestAffineAnalysisProperty:
    """The affine analysis must never overclaim: whenever it assigns a
    stride, the actual per-thread values must satisfy
    ``value(tid) == value(0) + stride * tid``."""

    @_SETTINGS
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["add_tid", "add_const", "mul_const",
                                 "shl_const", "add_self"]),
                st.integers(1, 8),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_claimed_strides_hold_at_runtime(self, steps):
        from repro.frontend import translate_kernel
        from repro.ptx import parse
        from repro.transforms import analyze_affine, analyze_uniformity

        # Build a kernel computing r2 via the random expression chain,
        # then storing it: out[tid] = r2.
        body = ["  mov.u32 %r1, %tid.x;", "  mov.u32 %r2, %r1;"]
        for op, k in steps:
            if op == "add_tid":
                body.append("  add.u32 %r2, %r2, %r1;")
            elif op == "add_const":
                body.append(f"  add.u32 %r2, %r2, {k};")
            elif op == "mul_const":
                body.append(f"  mul.lo.u32 %r2, %r2, {k};")
            elif op == "shl_const":
                body.append(f"  shl.b32 %r2, %r2, {k % 4};")
            elif op == "add_self":
                body.append("  add.u32 %r2, %r2, %r2;")
        source = (
            ".version 2.3\n.target sim\n"
            ".entry k (.param .u64 out)\n{\n"
            "  .reg .u32 %r<6>;\n  .reg .u64 %rd<4>;\n"
            + "\n".join(body)
            + "\n  mul.wide.u32 %rd1, %r1, 4;\n"
            "  ld.param.u64 %rd2, [out];\n"
            "  add.u64 %rd3, %rd2, %rd1;\n"
            "  st.global.u32 [%rd3], %r2;\n  exit;\n}\n"
        )
        scalar = translate_kernel(parse(source).kernel("k"))
        uniformity = analyze_uniformity(scalar, static_warps=True)
        strides = analyze_affine(scalar, uniformity)
        claimed = strides.get("r2")
        if claimed is None:
            return  # conservative answers are always allowed

        device = Device(config=baseline_config())
        device.register_module(source)
        n = 16
        out = device.malloc(n * 4)
        device.launch("k", grid=1, block=n, args=[out])
        values = out.read(np.uint32, n).astype(np.int64)
        deltas = np.diff(values)
        expected = np.uint32(claimed).astype(np.int64)
        # all per-thread deltas equal the claimed stride (mod 2^32)
        assert np.all(
            (deltas % (1 << 32)) == (expected % (1 << 32))
        ), (claimed, values)


class TestMeldingProperty:
    """Randomly generated divergent regions (unbalanced arms, nested
    inner diamonds, side exits, shared-memory stores in arms,
    triangles, a diamond in a loop) must produce bit-identical guest
    memory with the melding pass off and on, across all three
    execution paths — and a fixed meld setting must model identical
    statistics on every backend."""

    SETTINGS = settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    @staticmethod
    def build_kernel(taken_ops, fall_ops, threshold, variant):
        def arm(ops):
            lines = []
            for op, dst, a, b in ops:
                operand = str(b) if isinstance(b, int) and b > 3 else (
                    f"%r{b}"
                )
                suffix = (
                    "b32" if op in ("and", "or", "xor", "shl") else "u32"
                )
                lines.append(
                    f"  {op}.{suffix} %r{dst}, %r{a}, {operand};"
                )
            return "\n".join(lines)

        shared = variant in ("shared-both", "shared-one")
        shared_decl = "  .shared .u32 slots[64];" if shared else ""
        taken_extra = []
        fall_extra = []
        join_extra = []
        setup = f"  setp.lt.u32 %p2, %r4, {threshold};"
        if variant == "triangle-store":
            # the arm overwrites the input word it read: nothing in
            # the empty arm pairs with the store
            taken_extra = ["  st.global.u32 [%rd3], %r2;"]
        elif variant == "loop-carried":
            # three trips alternating arms; %r17 and %r18 are each
            # defined by one arm only and live at the join, so the
            # value an earlier trip left must survive the next one
            setup = "\n".join([
                "  mov.u32 %r16, 0;",
                "LOOP:",
                "  xor.b32 %r19, %r4, %r16;",
                "  and.b32 %r19, %r19, 1;",
                "  setp.eq.u32 %p2, %r19, 0;",
            ])
            taken_extra = ["  add.u32 %r17, %r16, 100;"]
            fall_extra = ["  add.u32 %r18, %r16, 200;"]
            join_extra = [
                "  add.u32 %r16, %r16, 1;",
                "  setp.lt.u32 %p4, %r16, 3;",
                "  @%p4 bra LOOP;",
                "  xor.b32 %r5, %r5, %r17;",
                "  xor.b32 %r5, %r5, %r18;",
            ]
        elif variant == "nested":
            # inner diamond inside the fallthrough arm: melding the
            # inner region straightens the arm, which can then make
            # the outer diamond meldable on the next fixpoint round
            fall_extra = [
                "  and.b32 %r6, %r1, 1;",
                "  setp.eq.u32 %p3, %r6, 0;",
                "  @%p3 bra NEVEN;",
                "  add.u32 %r2, %r2, 11;",
                "  bra NJOIN;",
                "NEVEN:",
                "  mul.lo.u32 %r2, %r2, 5;",
                "NJOIN:",
            ]
        elif variant == "side":
            # data-dependent side exit out of the taken arm: the arm
            # is not straight-line, so the region must be rejected —
            # and results must still match with the pass enabled
            taken_extra = [
                "  and.b32 %r6, %r2, 255;",
                "  setp.eq.u32 %p3, %r6, 129;",
                "  @%p3 bra DONE;",
            ]
        elif shared:
            taken_extra = ["  st.shared.u32 [%r12], %r3;"]
            if variant == "shared-both":
                # both arms publish (different values, same address):
                # the stores align and the region may meld
                fall_extra = ["  st.shared.u32 [%r12], %r2;"]
            join_extra = [
                "  bar.sync 0;",
                "  xor.b32 %r13, %r8, 1;",
                "  shl.b32 %r13, %r13, 2;",
                "  mov.u32 %r14, slots;",
                "  add.u32 %r13, %r14, %r13;",
                "  ld.shared.u32 %r15, [%r13];",
                "  xor.b32 %r5, %r5, %r15;",
            ]
        if variant.startswith("triangle"):
            # the taken successor is the join: one arm, one empty
            region = ["  @%p2 bra JOIN;", arm(taken_ops), *taken_extra]
        else:
            region = [
                "  @%p2 bra TAKEN;", arm(fall_ops), *fall_extra,
                "  bra JOIN;", "TAKEN:", arm(taken_ops), *taken_extra,
            ]
        shared_setup = ""
        if shared:
            shared_setup = (
                "  shl.b32 %r12, %r8, 2;\n"
                "  mov.u32 %r14, slots;\n"
                "  add.u32 %r12, %r14, %r12;\n"
            )
        return f"""
.version 2.3
.target sim
.entry prop (.param .u64 in, .param .u64 out, .param .u32 n)
{{
  .reg .u32 %r<20>;
  .reg .u64 %rd<6>;
  .reg .pred %p<6>;
{shared_decl}
  mov.u32 %r8, %tid.x;
  mov.u32 %r9, %ntid.x;
  mov.u32 %r10, %ctaid.x;
  mad.lo.u32 %r11, %r10, %r9, %r8;
  ld.param.u32 %r7, [n];
  setp.ge.u32 %p1, %r11, %r7;
  @%p1 bra DONE;
  mul.wide.u32 %rd1, %r11, 4;
  ld.param.u64 %rd2, [in];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.u32 %r0, [%rd3];
  xor.b32 %r1, %r0, 0x9e3779b9;
  add.u32 %r2, %r0, %r11;
  shr.u32 %r3, %r0, 5;
  and.b32 %r4, %r0, 63;
{shared_setup}{setup}
{chr(10).join(region)}
JOIN:
  xor.b32 %r5, %r0, %r1;
  xor.b32 %r5, %r5, %r2;
  xor.b32 %r5, %r5, %r3;
{chr(10).join(join_extra)}
  ld.param.u64 %rd4, [out];
  add.u64 %rd5, %rd4, %rd1;
  st.global.u32 [%rd5], %r5;
DONE:
  exit;
}}
"""

    @staticmethod
    def run_with_stats(source, data, config, block=32):
        n = len(data)
        device = Device(config=config)
        device.register_module(source)
        device.warm()
        src = device.upload(data)
        # upload zeros (not malloc) so side-exit lanes that skip the
        # final store read back a defined value in every run
        dst = device.upload(np.zeros(n, dtype=np.uint32))
        result = device.launch(
            "prop", grid=(n // block, 1, 1), block=(block, 1, 1),
            args=[src, dst, n],
        )
        return dst.read(np.uint32, n), result.statistics

    @SETTINGS
    @given(
        taken_ops=st.lists(int_op, min_size=1, max_size=5),
        fall_ops=st.lists(int_op, min_size=0, max_size=3),
        threshold=st.integers(0, 64),
        variant=st.sampled_from(
            ("plain", "nested", "side", "shared-both", "shared-one",
             "triangle", "triangle-store", "loop-carried")
        ),
        seed=st.integers(0, 2**31),
    )
    @example(
        taken_ops=[("mul.lo", 0, 1, 7), ("add", 1, 0, 2)], fall_ops=[],
        threshold=32, variant="triangle", seed=1,
    )
    @example(
        taken_ops=[("xor", 2, 1, 3)], fall_ops=[], threshold=32,
        variant="triangle-store", seed=2,
    )
    @example(
        taken_ops=[("add", 0, 0, 1)], fall_ops=[("or", 1, 2, 3)],
        threshold=32, variant="loop-carried", seed=3,
    )
    def test_meld_differential_matrix(
        self, taken_ops, fall_ops, threshold, variant, seed
    ):
        source = self.build_kernel(
            taken_ops, fall_ops, threshold, variant
        )
        if variant.startswith("triangle"):
            # a pure arm melds at width 4; an arm's store has nothing
            # to pair with in the empty arm
            from repro.frontend import translate_kernel
            from repro.machine.descriptor import sandybridge
            from repro.ptx import parse
            from repro.transforms import meld_function

            scalar = translate_kernel(parse(source).kernel("prop"))
            report = meld_function(scalar, sandybridge(), warp_size=4)
            assert [
                d.reason for d in report.decisions if d.join == "JOIN"
            ] == [
                "profitable" if variant == "triangle"
                else "unaligned-memory-op"
            ]
        data = np.random.default_rng(seed).integers(
            0, 1 << 32, 64, dtype=np.uint32
        )
        base = vectorized_config(4)
        reference = {}
        for meld in (False, True):
            stats_reference = None
            # CTAs of 8 warps: batched, refused, the oracle
            for backend, leg in (
                ("interpreter", nullcontext), ("reference", nullcontext),
                ("interpreter", sequential_only),
            ):
                config = replace(base, meld=meld, backend=backend)
                with leg():
                    values, stats = self.run_with_stats(
                        source, data, config
                    )
                assert (stats.batched_warps >= 8) == (
                    (backend, leg) == ("interpreter", nullcontext)
                ) and (stats.batched_warps == 0 or leg is nullcontext)
                if meld in reference:
                    # meld on and off agree bit-for-bit on guest memory
                    assert np.array_equal(values, reference[meld])
                else:
                    reference[meld] = values
                if stats_reference is None:
                    stats_reference = stats
                else:
                    # backends model identical statistics for a fixed
                    # meld setting
                    assert (
                        stats.total_cycles
                        == stats_reference.total_cycles
                    )
                    assert (
                        stats.yields_by_status
                        == stats_reference.yields_by_status
                    )
                    assert (
                        stats.melded_regions
                        == stats_reference.melded_regions
                    )
        assert np.array_equal(reference[False], reference[True])


class TestPureDiamondProperty:
    """Randomly generated pure diamonds (the conditional data flow of
    §7) must compute identical results with and without melding."""

    @_SETTINGS
    @given(
        taken_ops=st.lists(int_op, min_size=1, max_size=4),
        fall_ops=st.lists(int_op, min_size=0, max_size=4),
        threshold=st.integers(0, 64),
        seed=st.integers(0, 2**31),
    )
    def test_random_diamonds_equivalent(
        self, taken_ops, fall_ops, threshold, seed
    ):
        def arm(ops):
            lines = []
            for op, dst, a, b in ops:
                operand = str(b) if isinstance(b, int) and b > 3 else (
                    f"%r{b}"
                )
                suffix = (
                    "b32" if op in ("and", "or", "xor", "shl") else "u32"
                )
                lines.append(
                    f"  {op}.{suffix} %r{dst}, %r{a}, {operand};"
                )
            return "\n".join(lines)

        source = f"""
.version 2.3
.target sim
.entry prop (.param .u64 in, .param .u64 out, .param .u32 n)
{{
  .reg .u32 %r<12>;
  .reg .u64 %rd<6>;
  .reg .pred %p<2>;
  mov.u32 %r8, %tid.x;
  mov.u32 %r9, %ntid.x;
  mov.u32 %r10, %ctaid.x;
  mad.lo.u32 %r11, %r10, %r9, %r8;
  ld.param.u32 %r7, [n];
  setp.ge.u32 %p1, %r11, %r7;
  @%p1 bra DONE;
  mul.wide.u32 %rd1, %r11, 4;
  ld.param.u64 %rd2, [in];
  add.u64 %rd3, %rd2, %rd1;
  ld.global.u32 %r0, [%rd3];
  xor.b32 %r1, %r0, 0x9e3779b9;
  add.u32 %r2, %r0, %r11;
  shr.u32 %r3, %r0, 5;
  and.b32 %r4, %r0, 63;
  setp.lt.u32 %p1, %r4, {threshold};
  @%p1 bra TAKEN;
{arm(fall_ops)}
  bra JOIN;
TAKEN:
{arm(taken_ops)}
JOIN:
  xor.b32 %r5, %r0, %r1;
  xor.b32 %r5, %r5, %r2;
  xor.b32 %r5, %r5, %r3;
  ld.param.u64 %rd4, [out];
  add.u64 %rd5, %rd4, %rd1;
  st.global.u32 [%rd5], %r5;
DONE:
  exit;
}}
"""
        data = np.random.default_rng(seed).integers(
            0, 1 << 32, 64, dtype=np.uint32
        )
        config = vectorized_config(4)
        plain = run_config(source, data, config)
        melded = run_config(source, data, replace(config, meld=True))
        assert np.array_equal(plain, melded)
